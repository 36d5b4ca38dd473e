"""Single bit-flips on words and the transition records they produce."""

from __future__ import annotations

from dataclasses import dataclass

from .formats import FieldLocus, FpClass, Word, classify, locus_of_bit

__all__ = ["TransitionRecord", "flip_bit", "transition"]


@dataclass(frozen=True)
class TransitionRecord:
    """One flip: the word before and after, where it hit, and both classes."""

    before: Word
    after: Word
    position: int
    locus: FieldLocus
    class_before: FpClass
    class_after: FpClass


def flip_bit(w: Word, pos: int) -> Word:
    """Toggle exactly one bit.  Involution: flipping twice restores the word."""
    if not 0 <= pos < w.fmt.total_bits:
        raise ValueError(f"bit position {pos} outside [0, {w.fmt.total_bits})")
    return Word(w.bits ^ (1 << pos), w.fmt)


def transition(w: Word, pos: int) -> TransitionRecord:
    """Flip bit `pos` of w and record the class transition."""
    after = flip_bit(w, pos)
    return TransitionRecord(
        before=w,
        after=after,
        position=pos,
        locus=locus_of_bit(w.fmt, pos),
        class_before=classify(w),
        class_after=classify(after),
    )
