"""The assembled B-LOG system: one object, the whole paper.

:class:`BLogSystem` wires together everything a §6 deployment has:

* the clause database (logical :class:`Program` + physical
  :class:`LinkedDatabase` with weighted pointers);
* the semantic paging disks holding it;
* the global weight store with sessions (strong local learning,
  conservative merges) and optional JSON persistence;
* two executors over the same search space — the sequential adaptive
  engine and the simulated parallel machine — selected per query;
* session-end write-back of learned weights into the disk-resident
  records.

This is the "downstream user" API: consult a program, open a session,
ask queries (sequentially or on an N-processor machine), close the
session, and the knowledge persists.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from ..linkdb.build import LinkedDatabase
from ..logic.program import Program
from ..logic.terms import Term
from ..machine.blog_machine import MachineConfig, MachineResult
from ..spd.ops import SemanticPagingDisk
from ..spd.weights_io import WriteBackReport, write_back_weights
from ..weights.persist import load_store, save_store
from ..weights.store import WeightStore
from .config import BLogConfig
from .engine import BLogEngine, QueryResult

__all__ = ["BLogSystem"]


class BLogSystem:
    """A complete B-LOG installation over one knowledge base.

    Parameters
    ----------
    program:
        The knowledge base (or source text).
    config:
        Engine constants; see :class:`BLogConfig`.
    machine:
        Machine topology for :meth:`query_parallel`; a default
        4-processor machine is used when omitted.
    n_sps / track_words:
        SPD bank geometry.
    store_path:
        Optional JSON path: the global weight store is loaded from it
        at startup (when it exists) and written by :meth:`save`.
    """

    def __init__(
        self,
        program: Union[Program, str],
        config: Optional[BLogConfig] = None,
        machine: Optional[MachineConfig] = None,
        n_sps: int = 2,
        track_words: int = 256,
        store_path: Optional[Union[str, Path]] = None,
    ):
        self.program = (
            program if isinstance(program, Program) else Program.from_source(program)
        )
        self.config = config if config is not None else BLogConfig()
        self.machine_config = (
            machine if machine is not None else MachineConfig(n_processors=4)
        )
        self.store_path = Path(store_path) if store_path is not None else None
        if self.store_path is not None and self.store_path.exists():
            global_store = load_store(self.store_path)
        else:
            global_store = WeightStore(n=self.config.n, a=self.config.a)
        self.engine = BLogEngine(self.program, self.config, global_store=global_store)
        self.database = LinkedDatabase(self.program, global_store)
        self._n_sps = n_sps
        self._track_words = track_words
        self.disk = SemanticPagingDisk(
            self.database, n_sps=n_sps, track_words=track_words
        )
        self.writeback_reports: list[WriteBackReport] = []

    # -- sessions ---------------------------------------------------------------
    @property
    def store(self) -> WeightStore:
        """The weight store queries currently read (local in-session)."""
        return self.engine.store

    def begin_session(self) -> None:
        self.engine.begin_session()

    def end_session(self, conservative: bool = True, write_back: bool = True):
        """Merge the session and (by default) persist the learned
        weights into the disk-resident records; returns (merge report,
        write-back report or None)."""
        merge = self.engine.end_session(conservative=conservative)
        report = None
        if write_back:
            report = write_back_weights(
                self.disk, self.engine.sessions.global_store
            )
            self.writeback_reports.append(report)
        return merge, report

    # -- querying ------------------------------------------------------------------
    def query(
        self,
        query: str | Sequence[Term],
        max_solutions: Optional[int] = None,
    ) -> QueryResult:
        """Sequential adaptive best-first execution."""
        return self.engine.query(query, max_solutions=max_solutions)

    def query_parallel(
        self,
        query: str | Sequence[Term],
        max_solutions: Optional[int] = None,
    ) -> MachineResult:
        """Run on the simulated machine against the same weight store,
        learning through the engine's hook exactly like sequential
        queries (:meth:`BLogEngine.run_machine`)."""
        return self.engine.run_machine(
            query, self.machine_config, disk=self.disk, max_solutions=max_solutions
        )

    # -- persistence -----------------------------------------------------------------
    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Write the global weight store to JSON; returns the path."""
        target = Path(path) if path is not None else self.store_path
        if target is None:
            raise ValueError("no store path configured; pass one to save()")
        save_store(self.engine.sessions.global_store, target)
        return target

    # -- maintenance ---------------------------------------------------------------
    def consult(self, source: str) -> None:
        """Add clauses at run time: the linked database and disk are
        rebuilt (the inverted-file update of §5, wholesale)."""
        self.program.add_source(source)
        self.database.rebuild()
        self.disk = SemanticPagingDisk(
            self.database, n_sps=self._n_sps, track_words=self._track_words
        )

    def __repr__(self) -> str:
        return (
            f"BLogSystem({len(self.program)} clauses, "
            f"{self.machine_config.n_processors} processors, "
            f"{self.disk.n_sps} SPDs, {len(self.store)} learned weights)"
        )
