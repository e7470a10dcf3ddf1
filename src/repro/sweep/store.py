"""The persistent, content-addressed result store.

Layout (everything lives under one ``root`` directory)::

    <root>/<key>.npz   # npz tier: full MonteCarloResult arrays
    <root>/<key>.json  # envelope tier: repro.result JSON

``<key>`` is the sha256 canonical-token digest of an experiment's
complete identity (scenario, runs, seed, engine and horizon — or a DES
cluster config and seed — plus :data:`CACHE_VERSION`), so a key can
never collide across differing inputs and never drifts between
processes.  Monte-Carlo results live in the npz tier, where
``monte_carlo(store=...)`` and the sweep orchestrator share entries
byte-for-byte; the envelope tier stores the unified versioned result
envelope (see :mod:`repro.api.results`) for DES measurement results.
:meth:`ResultStore.load_cell` and :meth:`ResultStore.store_cell` pick
the tier from the cell.

Reads are best-effort: a missing, corrupted, or wrong-schema entry
behaves as a miss and the caller recomputes — but observably: the
``_ex`` reads report ``hit`` / ``miss`` / ``corrupt``, which the
orchestrator turns into ``cache_*`` events.  Decoded npz entries are
held in a process-wide LRU (validated against the file's stat
signature), so the figures sharing a point (the rate-0 baseline of
Figures 2, 3 and 7) decode it once per process; their arrays are
read-only, so no caller can write through a hit into every later one.
Writes are atomic (tempfile + rename) so a killed sweep never leaves a
truncated entry that its next run would trust.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Optional, Tuple, Union

import numpy as np

from repro.sim.results import MonteCarloResult
from repro.sim.scenario import Scenario
from repro.util.canonical import canonical_key
from repro.util.rng import SeedLike

#: Bump when result semantics change so stale entries never resurface.
#: v2: scenarios carry a ``faults`` plan and results a per-run
#: ``reachable_holders`` array.
#: v3: keys are canonical tokens (:mod:`repro.util.canonical`) — the
#: old encoding fell back to ``default=repr`` for any non-JSON leaf
#: (attack/fault dataclasses flattened by ``dataclasses.asdict``, numpy
#: scalars), and ``repr`` output is not stable across processes or
#: numpy versions, so keys could silently change and permanently miss.
#: v4: the packed ``mega`` engine joins the store (entries may carry a
#: ``mega_meta`` side-car and deserialise to ``MegaResult``), and
#: scenarios normalise integer-like numpy values for ``n``/``fan_out``/
#: ``max_rounds`` to built-in ints, which changes the canonical token
#: of any grid that previously smuggled numpy scalars through.
CACHE_VERSION = 4

#: Decoded npz entries kept in the process-wide LRU.
NPZ_LRU_ENTRIES = 128

#: ``(root, key) -> (stat_signature, decoded result)``, LRU-ordered.
_NPZ_LRU: "OrderedDict[Tuple[Path, str], Tuple[tuple, object]]" = (
    OrderedDict()
)

_RESULT_ARRAYS = (
    "counts",
    "counts_attacked",
    "counts_non_attacked",
    "reachable_holders",
    "churn_stats",
)


def _npz_lru_clear() -> None:
    """Drop every memoised entry (test hook)."""
    _NPZ_LRU.clear()


def _npz_lru_put(root: Path, key: str, sig: tuple, result) -> None:
    # The entry is shared by every later hit in this process: freeze
    # its arrays (no copy) so a caller's write raises instead of
    # silently changing what the next caller gets.
    for name in _RESULT_ARRAYS:
        array = getattr(result, name)
        if array is not None:
            array.flags.writeable = False
    _NPZ_LRU[(root, key)] = (sig, result)
    _NPZ_LRU.move_to_end((root, key))
    while len(_NPZ_LRU) > NPZ_LRU_ENTRIES:
        _NPZ_LRU.popitem(last=False)


def _stat_signature(path: Path) -> Optional[tuple]:
    """The file identity an LRU entry is valid for, or None if missing."""
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size, st.st_ino)


def _digest(seed, payload: dict) -> Optional[str]:
    """The content-address of ``payload`` seeded by ``seed``, or None.

    There is *no* lossy fallback: ``None`` seeds (fresh entropy),
    ``bool`` seeds and generator seeds have no stable identity, and a
    payload carrying a value the canonical encoder does not recognise is
    uncacheable rather than keyed unstably.
    """
    if seed is None or isinstance(seed, (bool, np.random.Generator)):
        return None
    try:
        return canonical_key(
            {"version": CACHE_VERSION, "seed": seed, **payload}
        )
    except TypeError:
        return None


def _decode_npz(path: Path, scenario: Scenario) -> Optional[MonteCarloResult]:
    """Decode and validate one npz entry; None on any failure."""
    try:
        with np.load(path) as data:
            counts = np.asarray(data["counts"])
            attacked = np.asarray(data["counts_attacked"])
            non_attacked = np.asarray(data["counts_non_attacked"])
            reachable_holders = (
                np.asarray(data["reachable_holders"])
                if "reachable_holders" in data.files
                else None
            )
            churn_stats = (
                np.asarray(data["churn_stats"])
                if "churn_stats" in data.files
                else None
            )
            mega_meta = (
                np.asarray(data["mega_meta"])
                if "mega_meta" in data.files
                else None
            )
    except Exception:
        # Truncated, corrupted, or wrong-format entry: behave like a
        # miss and let the caller recompute (load_ex reports it as
        # "corrupt" so the fallback is at least observable).
        return None
    if (
        counts.ndim != 2
        or counts.shape != attacked.shape
        or counts.shape != non_attacked.shape
    ):
        return None
    # A poisoned entry (float or object dtype smuggled in under a valid
    # shape) must not masquerade as a real count matrix: downstream
    # thresholding would silently produce garbage.
    if any(
        arr.dtype.kind not in "iu" for arr in (counts, attacked, non_attacked)
    ):
        return None
    if reachable_holders is not None and (
        reachable_holders.shape != (counts.shape[0],)
        or reachable_holders.dtype.kind not in "iu"
    ):
        return None
    if churn_stats is not None and (
        churn_stats.shape != (counts.shape[0], 2)
        or churn_stats.dtype.kind != "f"
    ):
        return None
    if mega_meta is not None:
        # Self-describing packed-engine entry: the side-car records
        # (shard_nodes, blocks, peak_state_bytes) and selects the
        # MegaResult envelope kind on the way back out.
        if mega_meta.shape != (3,) or mega_meta.dtype.kind not in "iu":
            return None
        from repro.sim.mega import MegaResult

        return MegaResult(
            scenario=scenario,
            counts=counts,
            counts_attacked=attacked,
            counts_non_attacked=non_attacked,
            reachable_holders=reachable_holders,
            churn_stats=churn_stats,
            shard_nodes=int(mega_meta[0]),
            blocks=int(mega_meta[1]),
            peak_state_bytes=int(mega_meta[2]),
        )
    return MonteCarloResult(
        scenario=scenario,
        counts=counts,
        counts_attacked=attacked,
        counts_non_attacked=non_attacked,
        reachable_holders=reachable_holders,
        churn_stats=churn_stats,
    )


@dataclass(frozen=True)
class ResultStore:
    """Content-addressed result store with npz and envelope tiers.

    Invalidation rule: keys never collide across differing inputs, so
    the only reason to clear a store is an engine semantics change —
    delete ``root`` (or bump :data:`CACHE_VERSION`).
    """

    root: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))

    @property
    def cache(self) -> "ResultStore":
        """This store.  Kept only for the frozen benchmark under
        ``perf/`` until its re-baseline (ROADMAP item 2a); nothing in
        ``src/``, ``tests/`` or ``benchmarks/`` may use it."""
        return self

    # -- keying --------------------------------------------------------------

    def key(
        self,
        scenario: Scenario,
        runs: int,
        *,
        seed: SeedLike = None,
        engine: str = "fast",
        horizon: Optional[int] = None,
    ) -> Optional[str]:
        """The npz entry key of a Monte-Carlo experiment, or None when
        it is uncacheable (see :func:`_digest`)."""
        return _digest(
            seed,
            {
                "scenario": scenario,
                "runs": int(runs),
                "engine": engine,
                "horizon": None if horizon is None else int(horizon),
            },
        )

    def key_for(self, cell) -> Optional[str]:
        """``cell``'s content-address, or None when it is uncacheable."""
        if cell.scenario is not None:
            runs = cell.runs
            if runs is None:
                from repro.sim.runner import default_runs

                runs = default_runs()
            return self.key(
                cell.scenario,
                runs,
                seed=cell.seed,
                engine=cell.engine,
                horizon=cell.horizon,
            )
        return _digest(
            cell.seed, {"kind": "measurement", "config": cell.config}
        )

    # -- by cell -------------------------------------------------------------

    def load_cell(self, cell, key: str):
        """``(result, status)`` for ``cell`` from its tier: npz for a
        Monte-Carlo cell, envelope for a measurement cell."""
        if cell.scenario is not None:
            return self.load_ex(key, cell.scenario)
        return self.load_envelope_ex(key)

    def store_cell(self, cell, key: str, result) -> None:
        """Persist ``cell``'s ``result`` in its tier."""
        if cell.scenario is not None:
            self.store(key, result)
        else:
            self.store_envelope(key, result)

    # -- npz tier ------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(
        self, key: str, scenario: Scenario
    ) -> Optional[MonteCarloResult]:
        """The stored result, or None on miss *or any read failure*."""
        return self.load_ex(key, scenario)[0]

    def load_ex(
        self, key: str, scenario: Scenario
    ) -> Tuple[Optional[MonteCarloResult], str]:
        """``(result, status)`` with status ``"hit"`` / ``"miss"`` /
        ``"corrupt"`` — corrupt meaning the entry exists but failed to
        decode or validate; result is None unless status is ``"hit"``.

        Hits are served from the process-wide decoded-entry LRU when the
        backing file's stat signature still matches; any signature
        change forces a re-decode, and a failed decode evicts the entry.
        """
        path = self.path_for(key)
        sig = _stat_signature(path)
        if sig is None:
            _NPZ_LRU.pop((self.root, key), None)
            return None, "miss"
        entry = _NPZ_LRU.get((self.root, key))
        if entry is not None and entry[0] == sig:
            _NPZ_LRU.move_to_end((self.root, key))
            return entry[1], "hit"
        result = _decode_npz(path, scenario)
        if result is None:
            _NPZ_LRU.pop((self.root, key), None)
            return None, "corrupt"
        _npz_lru_put(self.root, key, sig, result)
        return result, "hit"

    def store(self, key: str, result: MonteCarloResult) -> None:
        """Persist ``result`` atomically; failures are swallowed.  The
        entry just written is about to be this process's hottest, so it
        also seeds the LRU (freezing ``result``'s arrays)."""
        arrays = {
            name: getattr(result, name)
            for name in _RESULT_ARRAYS
            if getattr(result, name) is not None
        }
        if hasattr(result, "mega_meta"):
            arrays["mega_meta"] = result.mega_meta()
        path = self.path_for(key)
        if self._write_atomic(
            path, lambda handle: np.savez_compressed(handle, **arrays)
        ):
            sig = _stat_signature(path)
            if sig is not None:
                _npz_lru_put(self.root, key, sig, result)

    # -- envelope tier -------------------------------------------------------

    def envelope_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load_envelope(self, key: str):
        """The stored result object, or None on miss / any read failure."""
        return self.load_envelope_ex(key)[0]

    def load_envelope_ex(self, key: str):
        """``(result, status)`` like :meth:`load_ex`, for the envelope
        tier."""
        from repro.api.results import decode_envelope

        path = self.envelope_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None, "miss"
        try:
            result = decode_envelope(text)
        except Exception:
            return None, "corrupt"
        if result is None:
            return None, "corrupt"
        return result, "hit"

    def store_envelope(self, key: str, result) -> None:
        """Persist ``result``'s envelope atomically; failures are
        swallowed."""
        from repro.api.results import encode_envelope

        self._write_text(self.envelope_path(key), encode_envelope(result))

    # -- internals -----------------------------------------------------------

    def _write_text(self, path: Path, text: str) -> None:
        data = text.encode("utf-8")
        self._write_atomic(path, lambda handle: handle.write(data))

    @staticmethod
    def _write_atomic(
        path: Path, write: Callable[[IO[bytes]], object]
    ) -> bool:
        """Write ``path`` through ``write(handle)`` via a tempfile and a
        rename; False (and nothing at ``path``) on an OS error — the
        store is an accelerator, never a correctness dependency."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    write(handle)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        return True


def as_store(
    store: Union[None, str, Path, ResultStore]
) -> Optional[ResultStore]:
    """Coerce a store argument: None, a directory path, or a store."""
    if store is None or isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, Path)):
        return ResultStore(Path(store))
    raise TypeError(
        f"store must be None, a path, or a ResultStore, got {store!r}"
    )
