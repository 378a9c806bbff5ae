"""Operations, rounds and their accounting.

A workload's set-up yields a list of :class:`Op`. A round runs every op
once, in order; a run repeats whole rounds until its time is up, so each
round attempts the same operations and fails the same ones.
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

from checks import CheckFailed
from layertrace import LAYERS

# Operations are timed in CPU time of this process, which the kernel
# counts without the time the virtual machine's processors are held by
# the host (steal time) or the process waits for a processor, so a run
# measures the program and not the other tenants of a shared host. The
# benchmark is single-threaded and its work is computation on data in
# memory, so on an idle machine CPU time and wall-clock time agree.
CLOCK = time.process_time


def import_program() -> SimpleNamespace:
    """Import cliquefan afresh, dropping any copy already loaded, and
    return its layer modules by name."""
    for name in [m for m in sys.modules if m == "cliquefan" or m.startswith("cliquefan.")]:
        del sys.modules[name]
    importlib.import_module("cliquefan")
    return SimpleNamespace(**{m: importlib.import_module(f"cliquefan.{m}") for m in LAYERS})


@dataclass
class Op:
    """One operation: ``solve`` is the program's answering call, timed as
    solve; ``verify`` re-checks the answer with the program's own
    checkers, timed as verify; ``check`` tests the answer apart from the
    program and raises :class:`CheckFailed`. ``known_fault`` tells
    whether a failed answer is the documented empty-witness fault."""

    name: str
    solve: Callable[[], Any]
    check: Callable[[Any, Any], None]
    verify: Callable[[Any], Any] | None = None
    known_fault: Callable[[Any], bool] | None = None
    timed: bool = True


@dataclass
class Round:
    wall_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    solve_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    answers: list[Any] = field(default_factory=list)


def run_round(ops: list[Op], prologue: Callable[[], None] | None = None, keep_answers: bool = False) -> Round:
    """Run every op once. Solve and verify times are CPU time of this
    process (see ``CLOCK``); ``wall_s`` is the round's wall-clock time."""
    clock = CLOCK
    rnd = Round()
    start = time.perf_counter()
    if prologue is not None:
        prologue()
    for op in ops:
        rnd.attempted += 1
        answer = None
        try:
            t0 = clock()
            answer = op.solve()
            t1 = clock()
            verdict = op.verify(answer) if op.verify is not None else None
            t2 = clock()
            if op.timed:
                rnd.solve_s += t1 - t0
                rnd.verify_s += t2 - t1
                rnd.solve_times.append(t1 - t0)
            op.check(answer, verdict)
        except CheckFailed as exc:
            rnd.failed += 1
            if op.known_fault is None or not op.known_fault(answer):
                rnd.unexpected.append(f"{op.name}: {exc}")
        except Exception:
            rnd.failed += 1
            rnd.unexpected.append(f"{op.name}: raised\n{traceback.format_exc()}")
        if keep_answers:
            rnd.answers.append(answer)
    rnd.wall_s = time.perf_counter() - start
    return rnd
