"""The SQLite experiment ledger: schema, upserts, queries, export.

One :class:`ExperimentDB` file is the durable record of everything this
reproduction has computed: simulation **runs** (keyed by the same
content digest as the result cache, so a row names its scenario
exactly), **benchmark** measurements (the ``BENCH_*.json`` series the
perf claims live in), and **expectation evaluations** (the
success/partial/failure history the reproduction scorecard is judged
against -- see :mod:`repro.expdb.expectations`).

Three rules carried over from the rest of the repository:

* **Digest-keyed idempotency** -- ``runs`` rows are unique per spec
  digest and ingestion is an upsert: re-ingesting the same run updates
  the row in place, never duplicates it, so :meth:`ExperimentDB.export`
  is byte-identical no matter how many times a batch was recorded.
* **Corrupt-DB-as-fresh** -- mirroring the result cache's
  corrupt-entry-as-miss rule, a file that SQLite cannot read is moved
  aside to ``<path>.corrupt`` and a fresh database is created in its
  place; opening a ledger never fails because of disk rot.  Only a
  database written by a *newer* schema version is a hard error
  (:class:`~repro.errors.ExperimentDBError`).
* **No wall clock** -- this module never reads the clock (RPR001
  discipline): every ``created_unix`` value enters through an explicit
  argument supplied by the sanctioned timing layers
  (:mod:`repro.exec`, the CLI), so ledger content is a pure function
  of what was ingested.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentDBError

__all__ = [
    "EXPDB_SCHEMA_VERSION",
    "DEFAULT_DB_PATH",
    "RunRecord",
    "BenchRecord",
    "EvalRecord",
    "ExperimentDB",
    "canonical_json",
]

#: Bumped on any change to the table layout below; stored in the
#: ``meta`` table and checked on every open.  Databases from *older*
#: versions are migrated in place (:data:`_MIGRATIONS`); databases from
#: newer versions are refused.
EXPDB_SCHEMA_VERSION = 1

#: Default ledger location, relative to the working directory.
DEFAULT_DB_PATH = "experiments.sqlite"

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS runs (
        id               INTEGER PRIMARY KEY,
        digest           TEXT NOT NULL UNIQUE,
        label            TEXT NOT NULL DEFAULT '',
        status           TEXT NOT NULL,
        engine           TEXT NOT NULL,
        source           TEXT NOT NULL,
        seed             INTEGER,
        n_cycles         INTEGER NOT NULL,
        warmup           INTEGER,
        k                INTEGER,
        n_stages         INTEGER,
        p                REAL,
        message_size     INTEGER,
        q                REAL,
        topology         TEXT,
        width            INTEGER,
        buffer_capacity  INTEGER,
        config_json      TEXT NOT NULL,
        stage_means      TEXT,
        stage_variances  TEXT,
        stage_counts     TEXT,
        injected         INTEGER,
        completed        INTEGER,
        dropped          INTEGER,
        throughput       REAL,
        total_mean       REAL,
        total_variance   REAL,
        attempts         INTEGER NOT NULL DEFAULT 0,
        elapsed_seconds  REAL NOT NULL DEFAULT 0.0,
        timings_json     TEXT,
        error            TEXT,
        repro_version    TEXT,
        git_revision     TEXT,
        platform         TEXT,
        numpy_version    TEXT,
        created_unix     REAL
    )
    """,
    "CREATE INDEX IF NOT EXISTS runs_scenario ON runs (k, n_stages, p)",
    """
    CREATE TABLE IF NOT EXISTS benchmarks (
        id               INTEGER PRIMARY KEY,
        fingerprint      TEXT NOT NULL UNIQUE,
        name             TEXT NOT NULL,
        scenario         TEXT,
        baseline_seconds REAL,
        measured_seconds REAL,
        speedup          REAL,
        n_cycles         INTEGER,
        detail_json      TEXT NOT NULL,
        repro_version    TEXT,
        git_revision     TEXT,
        created_unix     REAL
    )
    """,
    "CREATE INDEX IF NOT EXISTS benchmarks_name ON benchmarks (name)",
    """
    CREATE TABLE IF NOT EXISTS expectation_evals (
        id                   INTEGER PRIMARY KEY,
        expectation_id       TEXT NOT NULL,
        expectations_version INTEGER NOT NULL,
        run_digest           TEXT,
        expected             REAL NOT NULL,
        measured             REAL,
        classification       TEXT NOT NULL,
        created_unix         REAL
    )
    """,
    "CREATE INDEX IF NOT EXISTS evals_expectation ON expectation_evals (expectation_id)",
)

#: ``{from_version: migration(conn)}`` -- applied in order when an
#: older ledger is opened.  Empty at schema v1; the machinery exists so
#: v2 can add columns without orphaning v1 files.
_MIGRATIONS: Dict[int, Any] = {}


def canonical_json(doc: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _finite(value: Optional[float]) -> Optional[float]:
    """NaN/Inf -> None so every stored REAL survives JSON export."""
    if value is None:
        return None
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


@dataclass(frozen=True)
class RunRecord:
    """One ledger row: a fully-identified run and what it measured.

    ``digest`` is the :attr:`ExperimentSpec.digest
    <repro.exec.spec.ExperimentSpec.digest>` of the scenario, which
    makes the row content-addressed exactly like the result cache.  The
    scenario columns (``k`` .. ``buffer_capacity``) are denormalised
    out of ``config_json`` so expectations and ad-hoc queries can
    select runs without parsing JSON.
    """

    digest: str
    status: str  # "completed" | "cached" | "failed"
    engine: str  # digest family: "serial" (older ledgers: also retired batch families)
    source: str  # "exec" | "manifest" | ...
    n_cycles: int
    config_json: str
    label: str = ""
    seed: Optional[int] = None
    warmup: Optional[int] = None
    k: Optional[int] = None
    n_stages: Optional[int] = None
    p: Optional[float] = None
    message_size: Optional[int] = None
    q: Optional[float] = None
    topology: Optional[str] = None
    width: Optional[int] = None
    buffer_capacity: Optional[int] = None
    stage_means: Optional[str] = None  # JSON array
    stage_variances: Optional[str] = None
    stage_counts: Optional[str] = None
    injected: Optional[int] = None
    completed: Optional[int] = None
    dropped: Optional[int] = None
    throughput: Optional[float] = None
    total_mean: Optional[float] = None
    total_variance: Optional[float] = None
    attempts: int = 0
    elapsed_seconds: float = 0.0
    timings_json: Optional[str] = None
    error: Optional[str] = None
    repro_version: Optional[str] = None
    git_revision: Optional[str] = None
    platform: Optional[str] = None
    numpy_version: Optional[str] = None
    created_unix: Optional[float] = None


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement (one point of a perf-trajectory series).

    ``fingerprint`` is a SHA-256 over the canonical artifact content;
    re-ingesting the same ``BENCH_*.json`` file is therefore an upsert,
    so historical backfills are idempotent.
    """

    fingerprint: str
    name: str  # series name: "replicas" | "sweep" | "exec" | ...
    detail_json: str
    scenario: Optional[str] = None
    baseline_seconds: Optional[float] = None
    measured_seconds: Optional[float] = None
    speedup: Optional[float] = None
    n_cycles: Optional[int] = None
    repro_version: Optional[str] = None
    git_revision: Optional[str] = None
    created_unix: Optional[float] = None


@dataclass(frozen=True)
class EvalRecord:
    """One recorded expectation evaluation (scorecard history)."""

    expectation_id: str
    expectations_version: int
    expected: float
    classification: str  # "success" | "partial" | "failure" | "missing"
    run_digest: Optional[str] = None
    measured: Optional[float] = None
    created_unix: Optional[float] = None


_RUN_COLUMNS: Tuple[str, ...] = tuple(f.name for f in fields(RunRecord))
_BENCH_COLUMNS: Tuple[str, ...] = tuple(f.name for f in fields(BenchRecord))
_EVAL_COLUMNS: Tuple[str, ...] = tuple(f.name for f in fields(EvalRecord))


class ExperimentDB:
    """A persistent, queryable experiment ledger (one SQLite file).

    Opening is self-healing: missing files are created, older schemas
    are migrated, and unreadable files are moved aside to
    ``<path>.corrupt`` and replaced (see the module docstring).  All
    writes commit immediately; the handle is safe to keep open for a
    whole batch.
    """

    def __init__(self, path: Union[str, Path] = DEFAULT_DB_PATH) -> None:
        self.path = Path(path)
        self._conn = self._open()

    # -- lifecycle ------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path))
        try:
            version = self._read_version(conn)
        except sqlite3.DatabaseError:
            # corrupt-DB-as-fresh: keep the bytes for forensics, start over
            conn.close()
            os.replace(self.path, self.path.with_name(self.path.name + ".corrupt"))
            conn = sqlite3.connect(str(self.path))
            version = None
        if version is None:
            self._create(conn)
            return conn
        if version > EXPDB_SCHEMA_VERSION:
            conn.close()
            raise ExperimentDBError(
                f"{self.path} is schema v{version}, newer than this package's "
                f"v{EXPDB_SCHEMA_VERSION}; refusing to touch it"
            )
        while version < EXPDB_SCHEMA_VERSION:
            migrate = _MIGRATIONS.get(version)
            if migrate is None:  # pragma: no cover - defensive
                conn.close()
                raise ExperimentDBError(
                    f"no migration from schema v{version} to v{version + 1}"
                )
            migrate(conn)
            version += 1
            self._write_version(conn, version)
        return conn

    @staticmethod
    def _read_version(conn: sqlite3.Connection) -> Optional[int]:
        """The stored schema version, or ``None`` for a fresh file.

        Raises :class:`sqlite3.DatabaseError` when the file is not a
        SQLite database at all (the corrupt case) and
        :class:`~repro.errors.ExperimentDBError` when it is a valid
        database that is not one of ours.
        """
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if not tables:
            return None
        if "meta" not in tables:
            raise ExperimentDBError(
                "database has tables but no 'meta' -- not an experiment ledger"
            )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            raise ExperimentDBError("ledger 'meta' table has no schema_version")
        return int(row[0])

    @staticmethod
    def _write_version(conn: sqlite3.Connection, version: int) -> None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (str(version),),
        )
        conn.commit()

    def _create(self, conn: sqlite3.Connection) -> None:
        for statement in _SCHEMA:
            conn.execute(statement)
        self._write_version(conn, EXPDB_SCHEMA_VERSION)

    @property
    def schema_version(self) -> int:
        """The schema version of the open ledger."""
        version = self._read_version(self._conn)
        assert version is not None  # _open guarantees an initialised file
        return version

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "ExperimentDB":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writes ---------------------------------------------------------
    def _upsert(
        self, table: str, columns: Sequence[str], values: Sequence[Any], key: str
    ) -> None:
        # created_unix is first-write-wins: it records when the row was
        # first observed, so re-ingesting identical content later (a
        # backfill, a repeated CI run) leaves the row -- and therefore
        # export() -- byte-identical.
        assigns = ", ".join(
            f"{c} = excluded.{c}"
            for c in columns
            if c not in (key, "created_unix")
        )
        self._conn.execute(
            f"INSERT INTO {table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))}) "
            f"ON CONFLICT({key}) DO UPDATE SET {assigns}",
            tuple(values),
        )
        self._conn.commit()

    def record_run(self, record: RunRecord) -> None:
        """Insert or update one run row (keyed by spec digest)."""
        values = [getattr(record, c) for c in _RUN_COLUMNS]
        self._upsert("runs", _RUN_COLUMNS, values, key="digest")

    def record_bench(self, record: BenchRecord) -> None:
        """Insert or update one benchmark point (keyed by fingerprint)."""
        values = [getattr(record, c) for c in _BENCH_COLUMNS]
        self._upsert("benchmarks", _BENCH_COLUMNS, values, key="fingerprint")

    def record_eval(self, record: EvalRecord) -> None:
        """Append one expectation evaluation to the scorecard history."""
        self._conn.execute(
            f"INSERT INTO expectation_evals ({', '.join(_EVAL_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(_EVAL_COLUMNS))})",
            tuple(getattr(record, c) for c in _EVAL_COLUMNS),
        )
        self._conn.commit()

    # -- queries --------------------------------------------------------
    def _rows(self, sql: str, params: Sequence[Any] = ()) -> Iterator[Dict[str, Any]]:
        cursor = self._conn.execute(sql, tuple(params))
        names = [d[0] for d in cursor.description]
        for row in cursor:
            yield dict(zip(names, row, strict=True))

    def runs(
        self,
        *,
        digest: Optional[str] = None,
        label: Optional[str] = None,
        status: Optional[str] = None,
        engine: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run rows (newest first) matching the given filters."""
        where: List[str] = []
        params: List[Any] = []
        for column, value in (
            ("digest", digest),
            ("label", label),
            ("status", status),
            ("engine", engine),
        ):
            if value is not None:
                where.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM runs"
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return list(self._rows(sql, params))

    def match_run(self, select: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """The newest *usable* run matching a scenario selector.

        ``select`` maps denormalised scenario columns (``k``,
        ``n_stages``, ``p``, ``message_size``, ``q``, ``topology``,
        ``width``, ``n_cycles``, ...) to required values; float values
        match within 1e-9.  Failed runs never match (they carry no
        metrics).
        """
        where = ["status IN ('completed', 'cached')"]
        params: List[Any] = []
        for column, value in sorted(select.items()):
            if column not in _RUN_COLUMNS:
                raise ExperimentDBError(f"unknown run selector column {column!r}")
            if value is None:
                where.append(f"{column} IS NULL")
            elif isinstance(value, float):
                where.append(f"ABS({column} - ?) < 1e-9")
                params.append(value)
            else:
                where.append(f"{column} = ?")
                params.append(value)
        sql = (
            "SELECT * FROM runs WHERE "
            + " AND ".join(where)
            + " ORDER BY id DESC LIMIT 1"
        )
        rows = list(self._rows(sql, params))
        return rows[0] if rows else None

    def bench_names(self) -> List[str]:
        """Distinct benchmark series names, alphabetical."""
        return [
            str(row[0])
            for row in self._conn.execute(
                "SELECT DISTINCT name FROM benchmarks ORDER BY name"
            )
        ]

    def bench_series(self, name: str) -> List[Dict[str, Any]]:
        """All points of one benchmark series, in ingestion order."""
        return list(
            self._rows(
                "SELECT * FROM benchmarks WHERE name = ? ORDER BY id", (name,)
            )
        )

    def latest_evals(self) -> Dict[str, Dict[str, Any]]:
        """The most recent recorded evaluation per expectation id."""
        latest: Dict[str, Dict[str, Any]] = {}
        for row in self._rows("SELECT * FROM expectation_evals ORDER BY id"):
            latest[str(row["expectation_id"])] = row
        return latest

    def counts(self) -> Dict[str, int]:
        """Row counts per table (for ``db query`` summaries)."""
        out: Dict[str, int] = {}
        for table in ("runs", "benchmarks", "expectation_evals"):
            row = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            out[table] = int(row[0])
        return out

    # -- export ---------------------------------------------------------
    def export(self) -> str:
        """The whole ledger as deterministic, canonical JSON.

        Rows are ordered by their content keys (digest / fingerprint /
        expectation id + insertion order) and the auto-increment ``id``
        column is dropped, so two ledgers holding the same records
        export byte-identically regardless of ingestion order or
        repetition.
        """

        def strip(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
            return [{k: v for k, v in row.items() if k != "id"} for row in rows]

        doc = {
            "schema_version": self.schema_version,
            "runs": strip(list(self._rows("SELECT * FROM runs ORDER BY digest"))),
            "benchmarks": strip(
                list(self._rows("SELECT * FROM benchmarks ORDER BY fingerprint"))
            ),
            "expectation_evals": strip(
                list(
                    self._rows(
                        "SELECT * FROM expectation_evals "
                        "ORDER BY expectation_id, id"
                    )
                )
            ),
        }
        return canonical_json(doc)
