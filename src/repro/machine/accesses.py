"""Memory access records.

Every interpreted kernel instruction that touches memory produces one
traced access.  These records are what the Snowboard profiler collects
and what the PMC identification stage (Algorithm 1 in the paper)
consumes: address range, access type, value read/written, and the
instruction address that performed the access.

Two representations exist:

* :class:`MemoryAccess` — one frozen record object, handed to the
  scheduler and the race detector during concurrent trials;
* :class:`AccessTrace` — the columnar trace an execution accumulates:
  eight parallel arrays, appended field-by-field so the sequential
  profiling hot path (no scheduler, no detector) allocates zero
  per-access objects.  Iterating or indexing a trace materialises
  equal :class:`MemoryAccess` views lazily, so every consumer that
  wants record objects still gets bit-identical ones.

Columnar consumers (profiler, coverage, scheduler bookkeeping) use
:func:`iter_access_fields`, which yields plain field tuples from either
representation — an :class:`AccessTrace` streams its arrays directly,
while a list of :class:`MemoryAccess` (tests build those by hand) is
adapted on the fly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union


class AccessType(enum.Enum):
    """Whether an access reads or writes memory."""

    READ = "R"
    WRITE = "W"

    # Members are singletons compared by identity, so the identity hash
    # is consistent; it runs in C, where Enum's own hashes the name in
    # Python on every probe of a set keyed by access signatures.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """A single dynamic memory access by a kernel thread.

    Attributes:
        seq: global sequence number within one execution (total order,
            meaningful because the executor serialises all vCPUs).
        thread: index of the virtual CPU / kernel thread (0 or 1).
        type: read or write.
        addr: start address of the accessed range.
        size: length of the range in bytes.
        value: the value read or written, as an unsigned little-endian
            integer over ``size`` bytes.
        ins: instruction address — the stable source location of the
            kernel code performing the access (``file.py:line``), the
            analogue of a guest program counter.
        is_stack: True when the range lies within the accessing thread's
            kernel stack (such accesses are pruned from PMC analysis,
            mirroring the ESP-based filtering of the paper, section 4.1.1).
    """

    seq: int
    thread: int
    type: AccessType
    addr: int
    size: int
    value: int
    ins: str
    is_stack: bool = False

    @property
    def end(self) -> int:
        """One past the last byte of the accessed range."""
        return self.addr + self.size

    @property
    def is_read(self) -> bool:
        return self.type is AccessType.READ

    @property
    def is_write(self) -> bool:
        return self.type is AccessType.WRITE

    def overlaps(self, other: "MemoryAccess") -> bool:
        """True when the two byte ranges intersect."""
        return self.addr < other.end and other.addr < self.end

    def value_bytes(self) -> bytes:
        """The accessed value as little-endian bytes of length ``size``."""
        return self.value.to_bytes(self.size, "little")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryAccess(#{self.seq} t{self.thread} {self.type} "
            f"[{self.addr:#x}+{self.size}] = {self.value:#x} @ {self.ins})"
        )


# One access as a plain field tuple (the order of MemoryAccess fields).
AccessFields = Tuple[int, int, AccessType, int, int, int, str, bool]


class AccessTrace:
    """Columnar memory-access trace: eight parallel arrays.

    The executor appends one row per traced instruction.  Sequential
    profiling appends raw fields (:meth:`append_fields`) and never
    builds a :class:`MemoryAccess`; concurrent trials append the record
    object they already created for the scheduler/detector
    (:meth:`append`).  Either way the stored columns are identical, and
    iteration/indexing materialises :class:`MemoryAccess` views lazily.
    """

    __slots__ = ("seqs", "threads", "types", "addrs", "sizes", "values", "inss", "stacks")

    def __init__(self) -> None:
        self.seqs: list = []
        self.threads: list = []
        self.types: list = []
        self.addrs: list = []
        self.sizes: list = []
        self.values: list = []
        self.inss: list = []
        self.stacks: list = []

    # -- recording -----------------------------------------------------------

    def append_fields(
        self,
        seq: int,
        thread: int,
        type: AccessType,
        addr: int,
        size: int,
        value: int,
        ins: str,
        is_stack: bool,
    ) -> None:
        """Append one row without materialising a record object."""
        self.seqs.append(seq)
        self.threads.append(thread)
        self.types.append(type)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.values.append(value)
        self.inss.append(ins)
        self.stacks.append(is_stack)

    def append(self, access: MemoryAccess) -> None:
        """Append one existing record (the concurrent-trial path)."""
        self.seqs.append(access.seq)
        self.threads.append(access.thread)
        self.types.append(access.type)
        self.addrs.append(access.addr)
        self.sizes.append(access.size)
        self.values.append(access.value)
        self.inss.append(access.ins)
        self.stacks.append(access.is_stack)

    def extend_prefix(self, other: "AccessTrace", count: int) -> None:
        """Bulk-append the first ``count`` rows of ``other``.

        Used when an execution resumes from a memoized prefix: the rows
        the prefix already produced are copied column-wise in one slice
        per array instead of row-by-row.
        """
        self.seqs.extend(other.seqs[:count])
        self.threads.extend(other.threads[:count])
        self.types.extend(other.types[:count])
        self.addrs.extend(other.addrs[:count])
        self.sizes.extend(other.sizes[:count])
        self.values.extend(other.values[:count])
        self.inss.extend(other.inss[:count])
        self.stacks.extend(other.stacks[:count])

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.seqs)

    def __bool__(self) -> bool:
        return bool(self.seqs)

    def _materialise(self, i: int) -> MemoryAccess:
        return MemoryAccess(
            seq=self.seqs[i],
            thread=self.threads[i],
            type=self.types[i],
            addr=self.addrs[i],
            size=self.sizes[i],
            value=self.values[i],
            ins=self.inss[i],
            is_stack=self.stacks[i],
        )

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._materialise(i) for i in range(*index.indices(len(self.seqs)))]
        n = len(self.seqs)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace index out of range")
        return self._materialise(index)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for i in range(len(self.seqs)):
            yield self._materialise(i)

    def iter_fields(self) -> Iterator[AccessFields]:
        """Stream rows as plain tuples — no record objects."""
        return zip(
            self.seqs,
            self.threads,
            self.types,
            self.addrs,
            self.sizes,
            self.values,
            self.inss,
            self.stacks,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessTrace({len(self.seqs)} accesses)"


def iter_access_fields(
    accesses: Union[AccessTrace, Iterable[MemoryAccess]],
) -> Iterator[AccessFields]:
    """Columnar iteration over either trace representation.

    Yields ``(seq, thread, type, addr, size, value, ins, is_stack)``
    tuples; an :class:`AccessTrace` streams its arrays directly, any
    other iterable of :class:`MemoryAccess` is adapted field-by-field.
    """
    if isinstance(accesses, AccessTrace):
        return accesses.iter_fields()
    return (
        (a.seq, a.thread, a.type, a.addr, a.size, a.value, a.ins, a.is_stack)
        for a in accesses
    )


def project_value(addr: int, size: int, value: int, lo: int, hi: int) -> int:
    """Project an access value onto the overlap window ``[lo, hi)``.

    This is the ``project_value`` helper of Algorithm 1: given an access
    covering ``[addr, addr+size)`` with little-endian ``value``, return the
    integer formed by the bytes that fall inside ``[lo, hi)``.

    Raises:
        ValueError: if ``[lo, hi)`` is not contained in the access range.
    """
    if lo < addr or hi > addr + size or lo >= hi:
        raise ValueError(
            f"window [{lo:#x},{hi:#x}) outside access [{addr:#x},{addr + size:#x})"
        )
    raw = value.to_bytes(size, "little")
    window = raw[lo - addr : hi - addr]
    return int.from_bytes(window, "little")
