"""A fixed reference kernel that measures how fast the machine is now.

The benchmark shares its cores with other tenants of the host, and the
same op on the same input takes up to twice as long while they are
busy.  Timing alone cannot tell a slower program from a busier host, so
every op is timed next to a pass of this kernel — fixed inputs, fixed
work, none of it from the program under test — and the benchmark of
record divides the op's time by the pass's.

The kernel mixes the kinds of work a synthesis op does, because each
kind slows by its own amount when the host is busy: a numpy gather,
stable argsort and ``unique`` over arrays larger than the L2 cache,
Python dict counting, a greedy colouring over adjacency lists, and set
inserts of Python strings picked at random from a list too large for
the L2 cache.  Without that last part, the pass slowed only about half
as much as a census op (in log terms) when the host got busier, so the
quotient still moved with the host's load.  Workloads whose ops write
files (the service's job results and cache entries) add rounds of file
work — create, write, rename, read back and delete small files — since
the kernel's file-system time swings with the host's disk traffic,
independently of its CPU speed.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Optional

import numpy as np

#: Scale of a normalized time: a time divided by a pass's time is
#: multiplied by the pass's nominal time, so that it reads as seconds on
#: a box where the CPU part of a pass takes ``NOMINAL_CPU_S`` and a
#: round of file work ``NOMINAL_FILE_ROUND_S``.
NOMINAL_CPU_S = 0.25
NOMINAL_FILE_ROUND_S = 0.01

_ROWS = 400_000
_KEYS = 40_000
_VERTICES = 8_000
_DEGREE = 8
_STRINGS = 300_000
_INSERTS = 300_000
_FILES = 12
_FILE_BYTES = 40_000


class Reference:
    """The kernel's inputs, built once; :meth:`time_pass` times one
    pass of it: the CPU part and ``file_rounds`` rounds of file work in
    a directory ``scratch`` of its own."""

    def __init__(
        self, file_rounds: int = 0, scratch: Optional[Path] = None
    ) -> None:
        if file_rounds and scratch is None:
            raise ValueError("file work needs a scratch directory")
        self.file_rounds = file_rounds
        self.scratch = scratch
        self.nominal_s = NOMINAL_CPU_S + file_rounds * NOMINAL_FILE_ROUND_S
        rng = np.random.default_rng(20211120)
        self.values = rng.integers(0, 1 << 30, size=_ROWS)
        self.index = rng.integers(0, _ROWS, size=_ROWS)
        self.keys = rng.integers(0, _KEYS // 4, size=_KEYS).tolist()
        self.adjacency = [
            rng.integers(0, _VERTICES, size=_DEGREE).tolist()
            for _ in range(_VERTICES)
        ]
        self.strings = [str(number) for number in range(_STRINGS)]
        self.picks = rng.integers(0, _STRINGS, size=_INSERTS).tolist()
        self.payload = rng.integers(0, 256, _FILE_BYTES, dtype=np.uint8)
        self.payload = self.payload.tobytes()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
        self.checksum = self._pass()

    def _pass(self) -> int:
        total = self._cpu()
        for _ in range(self.file_rounds):
            total += self._files()
        return total

    def _files(self) -> int:
        """Write, rename, read back and delete :data:`_FILES` files,
        each in a directory of its own; returns the bytes read."""
        read = 0
        for index in range(_FILES):
            folder = self.scratch / f"f{index}"
            folder.mkdir()
            partial = folder / "data.tmp"
            partial.write_bytes(self.payload)
            partial.rename(folder / "data")
        for index in range(_FILES):
            folder = self.scratch / f"f{index}"
            read += len((folder / "data").read_bytes())
            (folder / "data").unlink()
            folder.rmdir()
        return read

    def _cpu(self) -> int:
        gathered = self.values[self.index]
        order = np.argsort(gathered, kind="stable")
        uniques, counts = np.unique(gathered[order], return_counts=True)
        tally: dict = {}
        for position, key in enumerate(self.keys):
            tally[key] = tally.get(key, 0) + position
        colour: dict = {}
        for vertex, neighbours in enumerate(self.adjacency):
            used = {colour.get(other) for other in neighbours}
            choice = 0
            while choice in used:
                choice += 1
            colour[vertex] = choice
        seen = set()
        for pick in self.picks:
            seen.add(self.strings[pick])
        return (
            int(uniques.size)
            + int(counts.max())
            + len(tally)
            + max(colour.values())
            + len(seen)
        )

    def time_pass(self) -> float:
        """Wall seconds of one pass; raises if the pass went wrong."""
        started = time.perf_counter()
        checksum = self._pass()
        elapsed = time.perf_counter() - started
        if checksum != self.checksum:
            raise RuntimeError("reference kernel gave another result")
        return elapsed
