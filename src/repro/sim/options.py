"""The execution flags every work-running entry point shares.

``python -m repro.experiments``, ``repro faults`` and ``repro attack``
all take the same five flags — ``--jobs``, ``--resume``,
``--cache-dir``, ``--no-result-cache`` and ``--cache-stamp`` — from
:func:`execution_parser`, and turn the parsed namespace into one
:class:`ExecutionOptions`.  None of the flags changes a result: they
choose how many worker processes run the work, where finished work is
stored, and which prior results it may reuse.

One mechanism skips finished work: the result store
(:class:`~repro.sim.result_cache.ResultCache`).  ``--cache-dir`` names
a store shared across runs; ``--resume DIR`` makes ``DIR`` the store
when no other is named, so an interrupted run — killed, preempted, or
stopped by a dead worker — re-run with the same ``DIR`` restores every
finished cell and trial from it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from repro.sim.parallel import resolve_jobs
from repro.sim.result_cache import (
    ResultCache,
    active_result_cache,
    configure_result_cache,
    derive_cache_stamp,
)


@dataclass(frozen=True)
class ExecutionOptions:
    """How one run executes its work; see the module docstring."""

    jobs: int = 1
    resume: Optional[str] = None
    cache_dir: Optional[str] = None
    no_result_cache: bool = False
    cache_stamp: Optional[str] = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExecutionOptions":
        """The options parsed by :func:`execution_parser`."""
        return cls(**{
            field.name: getattr(args, field.name) for field in fields(cls)
        })

    def result_cache(self) -> Optional[ResultCache]:
        """The run's one result store: ``--cache-dir``, else
        ``$REPRO_RESULT_CACHE`` (both ignored under
        ``--no-result-cache``), else the ``--resume`` directory."""
        shared = None if self.no_result_cache else (
            self.cache_dir or os.environ.get("REPRO_RESULT_CACHE")
        )
        directory = shared or self.resume
        if not directory:
            return None
        stamp = self.cache_stamp or os.environ.get("REPRO_CACHE_STAMP") or None
        if stamp == "auto":
            stamp = derive_cache_stamp()
            if stamp is None:
                print(
                    "warning: --cache-stamp auto found neither an installed "
                    "package version nor a git revision; using version-"
                    "agnostic cache keys",
                    file=sys.stderr,
                )
        return ResultCache(directory, code_stamp=stamp)

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


_CACHE_DIR_HELP = (
    "content-addressed result cache: reuse any grid cell or campaign "
    "trial that already completed in a prior run, and store fresh ones "
    "(default: $REPRO_RESULT_CACHE if set, else no cache); warm output "
    "is byte-identical to cold"
)


def add_cache_dir_argument(parser, help_text: str = _CACHE_DIR_HELP) -> None:
    """``--cache-dir``; also used by ``repro cache`` to name the store."""
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None, help=help_text
    )


def execution_parser() -> argparse.ArgumentParser:
    """The argparse parent declaring the five execution flags."""
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
        help="resume directory: the final artifact is written here, "
        "and it holds the run's result store unless --cache-dir or "
        "$REPRO_RESULT_CACHE names another, so an "
        "interrupted run re-run with the same DIR finishes the "
        "remaining work with output identical to an uninterrupted run",
    )
    add_cache_dir_argument(group)
    group.add_argument(
        "--no-result-cache",
        action="store_true",
        help="ignore --cache-dir and $REPRO_RESULT_CACHE for this run",
    )
    group.add_argument(
        "--cache-stamp",
        metavar="STAMP",
        nargs="?",
        const="auto",
        default=None,
        help="scope result-cache keys to a code version (e.g. a git "
        "revision); entries written under another stamp miss instead "
        "of replaying.  Bare --cache-stamp (or --cache-stamp auto) "
        "derives the stamp from the installed package version or git "
        "HEAD (default: $REPRO_CACHE_STAMP if set, else "
        "version-agnostic keys)",
    )
    return parser
