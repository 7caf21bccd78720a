"""The execution flags every work-running entry point shares.

``python -m repro.experiments``, ``repro faults`` and ``repro attack``
all take the same two flags — ``--jobs`` and ``--resume`` — from
:func:`execution_parser`, and turn the parsed namespace into one
:class:`ExecutionOptions`.  Neither flag changes a result: they choose
how many worker processes run the work and where finished work is
stored.

One mechanism skips finished work: the result store
(:class:`~repro.sim.result_cache.ResultCache`) in the ``--resume DIR``
directory.  An interrupted run — killed, preempted, or stopped by a
dead worker — re-run with the same ``DIR`` restores every finished cell
and trial from it; a finished run re-run there replays from it.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from repro.sim.parallel import resolve_jobs
from repro.sim.result_cache import (
    ResultCache,
    active_result_cache,
    configure_result_cache,
)


@dataclass(frozen=True)
class ExecutionOptions:
    """How one run executes its work; see the module docstring."""

    jobs: int = 1
    resume: Optional[str] = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExecutionOptions":
        """The options parsed by :func:`execution_parser`."""
        return cls(**{
            field.name: getattr(args, field.name) for field in fields(cls)
        })

    def result_cache(self) -> Optional[ResultCache]:
        """The run's result store: the ``--resume`` directory, if any."""
        return ResultCache(self.resume) if self.resume else None

    @contextmanager
    def applied(self) -> Iterator[Optional[ResultCache]]:
        """Install the run's result cache for the duration of the
        block, then restore the one that was there before.

        Yields the installed result cache (or None).
        """
        previous_cache = active_result_cache()
        try:
            yield configure_result_cache(self.result_cache())
        finally:
            configure_result_cache(previous_cache)


def _argument_type(convert):
    """Wrap ``convert`` as an argparse ``type`` whose ValueError exits
    2 carrying its own message rather than argparse's generic one."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return parse


def execution_parser() -> argparse.ArgumentParser:
    """The argparse parent declaring the two execution flags."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=_argument_type(resolve_jobs),
        metavar="N",
        default="1",
        help="worker processes for grid cells and campaign trials "
        "('auto' = one per core; default: 1, fully serial); output is "
        "identical for any job count",
    )
    group.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume directory: it holds the run's result store and "
        "final artifact, so an interrupted run re-run with the same DIR "
        "finishes the remaining work with output identical to an "
        "uninterrupted run",
    )
    return parser
