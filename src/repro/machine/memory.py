"""Processor memory models: conventional RAM vs multiply-write RAM (§6).

"A multitasked processor will spend a lot of time copying data received
from the disk, and data in its own memory, as new chains in the search
tree are sprouted.  [...] Thus, the processor memory should be designed
to write multiply.  Using a shift register inside the memory, along
side the address decoder, [...] by setting several bits in the shift
register (using the decoder), we can write the contents of all words
that have a 1 in the shift register.  We could then shift the whole bit
pattern down one location [...] a block of data can be copied many
times into memory."

Two layers:

* **functional** — :class:`MultiWriteRAM` actually stores words and
  implements ``multi_copy`` via the shift-register semantics (set one
  bit per destination start address, write word 0 of all copies in one
  access, shift, write word 1, ...), so tests can verify the copies are
  bit-exact;
* **cost** — both classes report the cycle cost of a k-fold copy of a
  w-word block: conventional ``k*w`` write accesses (+ ``w`` reads),
  multiply-write ``k`` decoder bit-set accesses + ``w`` read-write
  passes.  The E7 ablation compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["CopyCost", "ConventionalRAM", "MultiWriteRAM"]


@dataclass(frozen=True)
class CopyCost:
    """Cycle accounting of one block-copy operation."""

    reads: int
    writes: int
    setup: int  # decoder/shift-register bit set operations

    @property
    def cycles(self) -> int:
        return self.reads + self.writes + self.setup


class ConventionalRAM:
    """Single-write random access memory."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.words = [0] * size

    def __len__(self) -> int:
        return len(self.words)

    def read(self, addr: int) -> int:
        return self.words[addr]

    def write(self, addr: int, value: int) -> None:
        self.words[addr] = value

    def load_block(self, addr: int, data: Sequence[int]) -> None:
        for i, v in enumerate(data):
            self.write(addr + i, v)

    def read_block(self, addr: int, length: int) -> list[int]:
        return [self.read(addr + i) for i in range(length)]

    def multi_copy(self, src: int, dsts: Sequence[int], length: int) -> CopyCost:
        """Copy ``length`` words starting at ``src`` to each address in
        ``dsts`` — one write access per destination word."""
        block = self.read_block(src, length)
        for d in dsts:
            self.load_block(d, block)
        return CopyCost(reads=length, writes=length * len(dsts), setup=0)

    @staticmethod
    def copy_cost(length: int, copies: int) -> CopyCost:
        """Analytic cost without touching memory."""
        return CopyCost(reads=length, writes=length * copies, setup=0)


class MultiWriteRAM(ConventionalRAM):
    """RAM with the §6 shift-register multiple-write mechanism.

    The shift register holds one bit per word.  ``multi_copy`` sets the
    bit at each destination start address (``setup`` accesses), then for
    each of the ``length`` source words performs one read plus **one**
    multi-write access that stores the word at every 1-bit, and shifts
    the whole pattern down one position.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self.shift_register = [False] * size
        self.multi_write_ops = 0

    def set_copy_bits(self, addrs: Iterable[int]) -> int:
        """Set shift-register bits at the given addresses; returns count."""
        count = 0
        for a in addrs:
            self.shift_register[a] = True
            count += 1
        return count

    def clear_bits(self) -> None:
        self.shift_register = [False] * len(self.words)

    def multi_write(self, value: int) -> int:
        """Write ``value`` at every 1-bit in one access; returns fan-out."""
        self.multi_write_ops += 1
        fan = 0
        for addr, bit in enumerate(self.shift_register):
            if bit:
                self.words[addr] = value
                fan += 1
        return fan

    def shift_down(self) -> None:
        """Shift the whole bit pattern one word toward higher addresses."""
        self.shift_register = [False] + self.shift_register[:-1]

    def multi_copy(self, src: int, dsts: Sequence[int], length: int) -> CopyCost:
        for d in dsts:
            if d + length > len(self.words):
                raise IndexError("destination block out of range")
        self.clear_bits()
        setup = self.set_copy_bits(dsts)
        for i in range(length):
            word = self.read(src + i)
            self.multi_write(word)
            self.shift_down()
        self.clear_bits()
        # one multi-write access per word counts as a single write cycle
        return CopyCost(reads=length, writes=length, setup=setup)

    @staticmethod
    def copy_cost(length: int, copies: int) -> CopyCost:
        return CopyCost(reads=length, writes=length, setup=copies)
