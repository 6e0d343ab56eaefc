"""Command-line front end: scenario runs, violation search, table export.

Three subcommands, each taking only the options it reads:

  pipeline  run a scenario file end to end, write the verification report
            (exit 0 only if every check passes, 1 on a failed check);
  search    batch-scan seeded random discrete max/min scenarios for
            rectangle-inequality violations of the same-corner copula pair
            (exploratory: exit 0 whether or not witnesses turn up);
  emit      export generator tables, copula surfaces, marginal bounds and
            bivariate-bound surfaces as CSV.

Malformed configuration or scenario input exits 2. All outputs are
deterministic for a fixed seed (sorted keys, no timestamps, shortest
round-trip float formatting) and written atomically: content goes to a
temporary file in the target directory which is renamed over the final
path only once complete, so failures never leave partial files.

Scenario files are JSON:

    {"model": "marshall" | "maxmin",
     "x": {"lower": LAW, "upper": LAW} | LAW,
     "y": {"lower": LAW, "upper": LAW} | LAW,
     "z": LAW,
     "grid": 101}

where LAW is a parametric law object such as {"type": "exponential",
"rate": 1.0} or {"type": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]};
a bare LAW for x or y means a precise (degenerate) p-box. z is always
precise. A --grid flag overrides the file's grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .copulas import MaxminCopula, copula_grid
from .distfn import DistFn, law_from_json
from .errors import ConfigError, ShockboxError
from .generators import build_chi, build_phi
from .imprecise import CopulaPair, search_ic_violation, verify_witness
from .pbox import PBox
from .shockmodel import (
    MAX_GRID,
    Scenario,
    ScenarioResult,
    probe_xs,
    random_discrete_scenario,
    run_scenario,
    thin,
)

COMMANDS = ("pipeline", "search", "emit")
FORMATS = ("json", "csv")

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42
DEFAULT_SEARCH_COUNT = 1000
DEFAULT_SEARCH_GRID = 51
# search rescans every finding on a 2 * grid - 1 grid, which must fit MAX_GRID
MAX_SEARCH_GRID = (MAX_GRID + 1) // 2
# search keeps every finding (about 1.3 KB of JSON each) until it writes the
# summary, and scans about 200 scenarios a second per worker process (one per
# usable CPU) at the default grid
MAX_SEARCH_COUNT = 100_000


@dataclass(frozen=True)
class RunConfig:
    command: str
    scenario: Path | None = None
    grid: int | None = None
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    out: Path = Path(".")
    fmt: str = "json"
    count: int = DEFAULT_SEARCH_COUNT

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        max_grid = MAX_SEARCH_GRID if self.command == "search" else MAX_GRID
        if self.grid is not None and not 2 <= self.grid <= max_grid:
            raise ConfigError(f"grid must be between 2 and {max_grid}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")
        if not 0 <= self.count <= MAX_SEARCH_COUNT:
            raise ConfigError(f"count must be between 0 and {MAX_SEARCH_COUNT}")


# ---------------------------------------------------------------------------
# input / output plumbing


def _law(obj, label: str) -> DistFn:
    try:
        return law_from_json(obj)
    except ShockboxError as exc:
        raise ConfigError(f"bad law for {label}: {exc}") from exc


def _law_pair(obj, label: str) -> PBox:
    if not (isinstance(obj, dict) and {"lower", "upper"} <= obj.keys()):
        return PBox.precise(_law(obj, label))
    lower, upper = _law(obj["lower"], label), _law(obj["upper"], label)
    try:
        return PBox(lower, upper)
    except ShockboxError as exc:
        raise ConfigError(f"bad p-box for {label}: {exc}") from exc


def load_scenario(path: Path, grid_override: int | None = None) -> Scenario:
    """Parse a scenario file; every malformation becomes a ConfigError."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must hold a JSON object")
    missing = [k for k in ("model", "x", "y", "z") if k not in raw]
    if missing:
        raise ConfigError(f"scenario is missing fields: {', '.join(missing)}")
    grid = grid_override if grid_override is not None else raw.get("grid", 101)
    if not isinstance(grid, int):
        raise ConfigError("grid must be an integer")
    try:
        return Scenario(
            x_pbox=_law_pair(raw["x"], "x"),
            y_pbox=_law_pair(raw["y"], "y"),
            z=_law(raw["z"], "z"),
            model=raw["model"],
            grid=grid,
        )
    except ShockboxError as exc:
        raise ConfigError(str(exc)) from exc


def _write_atomic(path: Path, text) -> None:
    """Write a str, or a ``_CsvTable`` slab by slab, through a temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# rows per slab of a written CSV table: the text of one slab of a four-column
# surface is a few MB, against about 80 MB for a whole 1001 x 1001 surface
CSV_SLAB_ROWS = 1 << 15


class _CsvTable:
    """CSV text of a header and equal-length float columns, one cell
    ``repr(float)`` of its value, produced one slab of rows at a time.

    Each column is formatted once per distinct bit pattern in a slab (its
    int64 view, so 0.0 and -0.0 stay apart) and the slab's rows are joined
    in one pass. Iterating yields the header, then the text of each slab;
    ``len`` is the number of characters, as for the whole text.
    """

    def __init__(self, header: list[str], columns) -> None:
        self._header = ",".join(header) + "\n"
        self._bits = [np.asarray(col, dtype=float).view(np.int64) for col in columns]
        self._rows = self._bits[0].size

    def _slab(self, start: int):
        """Per column of the slab of rows from start: the text of each
        distinct value, and each row's index into it."""
        for bits in self._bits:
            distinct, inverse = np.unique(bits[start : start + CSV_SLAB_ROWS], return_inverse=True)
            yield np.array([repr(x) for x in distinct.view(float).tolist()], dtype=object), inverse

    def __iter__(self):
        yield self._header
        for start in range(0, self._rows, CSV_SLAB_ROWS):
            cells = [text[inverse].tolist() for text, inverse in self._slab(start)]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    def __len__(self) -> int:
        # each cell is followed by a comma or, at the end of its row, a newline
        size = len(self._header) + self._rows * len(self._bits)
        for start in range(0, self._rows, CSV_SLAB_ROWS):
            for text, inverse in self._slab(start):
                size += int(np.bincount(inverse) @ np.array([len(t) for t in text]))
        return size


# ---------------------------------------------------------------------------
# commands


def _unit_grid(n: int) -> np.ndarray:
    # arange/(n-1) rounds each i/(n-1) correctly, so decimal grids print as
    # decimals; linspace accumulates step rounding (0.20000000000000004).
    return np.arange(n, dtype=float) / (n - 1)


def _surface_table(header: list[str], low, up, us, vs) -> _CsvTable:
    # one row per grid point, u-major: (u, v, low[u, v], up[u, v])
    columns = (np.repeat(us, vs.size), np.tile(vs, us.size), low.ravel(), up.ravel())
    return _CsvTable(header, columns)


def _write_surfaces(res: ScenarioResult, out: Path, n: int) -> list[Path]:
    us = _unit_grid(n)
    pair = res.imprecise_pair
    paths = [out / "copula_surface.csv", out / "h_surface.csv"]
    low, up = copula_grid(pair.low, us, us), copula_grid(pair.up, us, us)
    _write_atomic(paths[0], _surface_table(["u", "v", "low_c", "up_c"], low, up, us, us))
    xs = thin(probe_xs([res.low_f, res.up_f, res.low_second, res.up_second]), n)
    low, up = res.low_h.at_many(xs, xs), res.up_h.at_many(xs, xs)
    _write_atomic(paths[1], _surface_table(["x", "y", "low_h", "up_h"], low, up, xs, xs))
    return paths


def cmd_pipeline(cfg: RunConfig) -> int:
    if cfg.scenario is None:
        raise ConfigError("pipeline needs --scenario")
    scenario = load_scenario(cfg.scenario, cfg.grid)
    result = run_scenario(scenario, tol=cfg.tol)
    _write_atomic(cfg.out / "report.json", _json_text(result.to_report()))
    if cfg.fmt == "csv":
        _write_surfaces(result, cfg.out, scenario.grid)
    return 0 if result.all_passed else 1


def search_scenario(seed: int, index: int, grid: int, tol: float) -> dict | None:
    """Scan search scenario ``index`` of ``seed``; its finding, or None if it passes.

    The scenario is seeded by ``[seed, index]`` and shares no state with any
    other, so scenarios can run in any order and in any process.
    """
    scenario = random_discrete_scenario([seed, index], model="maxmin", grid=grid)
    low_phi = build_phi(scenario.x_pbox.lower, scenario.z)
    up_phi = build_phi(scenario.x_pbox.upper, scenario.z)
    low_chi = build_chi(scenario.y_pbox.lower, scenario.z)
    up_chi = build_chi(scenario.y_pbox.upper, scenario.z)
    pair = CopulaPair(MaxminCopula(low_phi, low_chi), MaxminCopula(up_phi, up_chi))
    witnesses = search_ic_violation(pair, n=grid, tol=tol)
    if not witnesses:
        return None
    rescan = search_ic_violation(pair, n=2 * grid - 1, tol=tol, first=True)
    doubled = {w.condition for w in rescan}
    return {
        "scenario_index": index,
        "witnesses": [w.to_dict() for w in witnesses],
        "reverified_exact": all(verify_witness(pair, w, tol=tol) for w in witnesses),
        "reverified_doubled_grid": all(w.condition in doubled for w in witnesses),
    }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_search(cfg: RunConfig) -> int:
    """Scan seeded random max/min scenarios for same-corner pair violations.

    The same-corner pair composes into the bivariate bounds but is not in
    general an imprecise copula on the unit square; this command gathers
    grid evidence. Each witness is re-verified two ways: recomputed directly
    on its rectangle, and re-found by a scan at doubled resolution. That
    scan only has to say which conditions fail, so its rectangle scan stops
    once all four rectangle conditions are violated.

    The scenarios run on forked worker processes, one per usable CPU, in
    ordered chunks; the findings are merged by scenario index, so the
    summary is the same bytes as a single-process run. With one usable CPU,
    fewer than two scenarios or no fork start method they run in this
    process. An error in any scenario ends the search before anything is
    written.
    """
    import multiprocessing

    grid = cfg.grid if cfg.grid is not None else DEFAULT_SEARCH_GRID
    scan = functools.partial(search_scenario, cfg.seed, grid=grid, tol=cfg.tol)
    workers = min(_usable_cpus(), cfg.count)
    # fork, not spawn: a worker starts from this process's memory instead of
    # importing numpy and shockbox again. The scan makes no BLAS call, so a
    # BLAS thread pool running at fork time is never used in a worker.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        chunk = max(1, cfg.count // (8 * workers))
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(scan, range(cfg.count), chunksize=chunk)
    else:
        results = list(map(scan, range(cfg.count)))
    findings = [finding for finding in results if finding is not None]
    by_condition: dict[str, int] = {}
    for finding in findings:
        for w in finding["witnesses"]:
            by_condition[w["condition"]] = by_condition.get(w["condition"], 0) + 1
    summary = {
        "command": "search",
        "model": "maxmin",
        "pair": "same-corner",
        "scenarios_scanned": cfg.count,
        "grid": grid,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "scenarios_with_violations": len(findings),
        "violations_by_condition": by_condition,
        "findings": findings,
    }
    _write_atomic(cfg.out / "search_summary.json", _json_text(summary))
    return 0


def cmd_emit(cfg: RunConfig) -> int:
    """Write generator, marginal and surface tables for one scenario."""
    if cfg.scenario is None:
        raise ConfigError("emit needs --scenario")
    scenario = load_scenario(cfg.scenario, cfg.grid)
    result = run_scenario(scenario, tol=cfg.tol)
    n = scenario.grid
    grid_us = _unit_grid(n)
    for name, gen in (
        ("low_phi", result.low_phi),
        ("up_phi", result.up_phi),
        ("low_companion", result.low_companion),
        ("up_companion", result.up_companion),
    ):
        us = np.unique(np.concatenate([grid_us, np.asarray(gen.knot_us)]))
        table = _CsvTable(["u", "value"], (us, gen.eval_many(us)))
        _write_atomic(cfg.out / f"generator_{name}.csv", table)
    marginals = (result.low_f, result.up_f, result.low_second, result.up_second)
    xs = thin(probe_xs(marginals), max(n, 101))
    table = _CsvTable(
        ["x", "low_f", "up_f", "low_second", "up_second"],
        (xs, *(f.eval_many(xs) for f in marginals)),
    )
    _write_atomic(cfg.out / "marginals.csv", table)
    _write_surfaces(result, cfg.out, n)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # one line through main instead of the usage and an exit
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="shockbox",
        description="Shock-model copula bounds: run, search, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "pipeline": "run a scenario and write its verification report",
        "search": "scan random scenarios for same-corner pair violations",
        "emit": "export generator/copula/marginal tables as CSV",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        if name != "search":
            p.add_argument("--scenario", type=Path, default=None, help="scenario JSON file")
        p.add_argument("--grid", type=int, default=None, help="grid resolution override")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="check tolerance")
        if name == "search":
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
            p.add_argument(
                "--count", type=int, default=DEFAULT_SEARCH_COUNT, help="scenarios to scan"
            )
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if name == "pipeline":
            p.add_argument("--format", choices=FORMATS, default="json", dest="fmt")
    return parser


def main(argv=None) -> int:
    try:
        # the parser's destinations are RunConfig's field names; an option a
        # subcommand does not take keeps the field's default
        cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
        handler = {"pipeline": cmd_pipeline, "search": cmd_search, "emit": cmd_emit}[cfg.command]
        return handler(cfg)
    except ShockboxError as exc:
        print(f"shockbox: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0


if __name__ == "__main__":
    sys.exit(main())
