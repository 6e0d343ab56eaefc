"""Command-line front end: scenario runs, violation search, table export.

Three subcommands, each taking only the options it reads:

  pipeline  run a scenario file end to end, write the verification report
            (exit 0 only if every check passes, 1 on a failed check);
  search    batch-scan seeded random discrete max/min scenarios for
            rectangle-inequality violations of the same-corner copula pair
            (exploratory: exit 0 whether or not witnesses turn up);
  emit      export generator tables, copula surfaces, marginal bounds and
            bivariate-bound surfaces as CSV.

Malformed configuration or scenario input exits 2, and so does an --out
that cannot be a directory, before any work. All outputs are
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

from .copulas import copula_grid, unit_grid
from .distfn import DistFn, law_from_json
from .errors import ConfigError, ShockboxError
from .imprecise import same_corner_findings
from .pbox import PBox
from .shockmodel import (
    MAX_GRID,
    Scenario,
    ScenarioResult,
    probe_xs,
    run_scenario,
    search_generators,
    search_step_draws,
    thin,
)

COMMANDS = ("pipeline", "search", "emit")
FORMATS = ("json", "csv")

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42
DEFAULT_SEARCH_COUNT = 1000
DEFAULT_SEARCH_GRID = 51
# search writes each range's findings (about 1.3 KB of JSON each) as the
# range finishes, so its memory does not grow with the count: on a 2-core VM
# (Python 3.11, numpy 2.4.6) --count 100000 --grid 51 --seed 3 took 14.5 s,
# with a peak RSS of 32 MB in the parent and 35 MB in each worker, and wrote
# a summary of 74 MB
MAX_SEARCH_COUNT = 100_000
# scenarios per range of a search, whose arrays take a few hundred KB whatever the count
SEARCH_RANGE = 64
# grid cells of a stack of a range's copula grids: 16 pairs at the default
# grid, one pair from grid 145 on. A stack is certified, and its witnesses
# re-verified, at once. On a 2-core VM (Python 3.11, numpy 2.4.6) a
# one-process search --count 1000 --seed 42 took a median 0.317 s with
# stacks of 16 pairs, against 0.332 s with stacks of 64 (16 interleaved runs
# each), and peaked at 39 MB RSS against 44 MB: the certificate passes over
# each stack several times, and a stack of 16 (330 KB a grid) stays in cache
SEARCH_STACK_CELLS = 16 * DEFAULT_SEARCH_GRID**2


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
        if self.grid is not None and not 2 <= self.grid <= MAX_GRID:
            raise ConfigError(f"grid must be between 2 and {MAX_GRID}")
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
    if isinstance(grid, bool) or not isinstance(grid, int):
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


def _make_output_dir(out: Path) -> None:
    """Create the output directory and its parents. Each command calls it
    once its input has loaded and before any work, so a malformed input
    leaves no directory behind and an unusable path (a file, or a path under
    a file) exits 2 at once."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc.strerror}") from exc


def _write_atomic(path: Path, text) -> None:
    """Write a str, or a ``_CsvTable`` slab by slab, through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# spaces per nesting level of every JSON file written
JSON_INDENT = 2


def _json_text(obj) -> str:
    return json.dumps(obj, indent=JSON_INDENT, sort_keys=True) + "\n"


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


def _csv_grid(n: int) -> np.ndarray:
    # arange/(n-1) rounds each i/(n-1) correctly, so decimal grids print as
    # decimals; linspace accumulates step rounding (0.20000000000000004).
    return np.arange(n, dtype=float) / (n - 1)


def _surface_table(header: list[str], low, up, us, vs) -> _CsvTable:
    # one row per grid point, u-major: (u, v, low[u, v], up[u, v])
    columns = (np.repeat(us, vs.size), np.tile(vs, us.size), low.ravel(), up.ravel())
    return _CsvTable(header, columns)


def _write_surfaces(res: ScenarioResult, out: Path, n: int) -> list[Path]:
    us = _csv_grid(n)
    pair = res.family.pair
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
    _make_output_dir(cfg.out)
    result = run_scenario(scenario, tol=cfg.tol)
    _write_atomic(cfg.out / "report.json", _json_text(result.to_report()))
    if cfg.fmt == "csv":
        _write_surfaces(result, cfg.out, scenario.grid)
    return 0 if result.all_passed else 1


def search_range(seed: int, start: int, stop: int, grid: int, tol: float) -> list[dict]:
    """The findings of search scenarios start, ..., stop - 1 of ``seed``, in
    index order. Scenario ``index`` is seeded by ``[seed, index]`` and shares
    no state with any other, so ranges can run in any order and in any
    process. The range stays in arrays. Its draws, those that
    ``random_step_draws([seed, index])`` makes one scenario at a time, are
    decoded together from the scenarios' raw PCG64 words
    (``search_step_draws``); its generators are built together, packed
    (``search_generators``), and evaluated on the grid row by row; its
    same-corner pairs are checked, and their witnesses re-verified, as
    stacks of grids (``same_corner_findings``) of at most SEARCH_STACK_CELLS
    cells. No ``Generator`` or ``Copula`` object is built.
    """
    draws = search_step_draws(seed, start, stop)
    us = unit_grid(grid)
    # per scenario (low_phi, up_phi, low_chi, up_chi) at us
    values = search_generators(draws).eval_many(us).reshape(len(draws), 4, grid)
    stack = max(1, SEARCH_STACK_CELLS // grid**2)
    findings = []
    for first in range(0, len(values), stack):
        part = values[first : first + stack].swapaxes(0, 1)
        for k, records, reverified in same_corner_findings("maxmin", us, part, tol):
            findings.append({
                "scenario_index": start + first + k,
                "witnesses": records,
                "reverified_exact": reverified,
                # true for every finding, so no rescan is run (see cmd_search)
                "reverified_doubled_grid": True,
            })
    return findings


# json's spellings of the floats whose repr is not JSON
_JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _finding_templates() -> tuple[str, str, str]:
    """The text of a finding and of one of its witnesses as _json_text
    writes them in the summary, with %s for each value, and the close of a
    finding's non-empty witness list: a finding is an item of the
    summary's "findings" list, two levels deep, and its keys come in
    sorted order."""

    def pad(level: int) -> str:
        return "\n" + " " * (JSON_INDENT * level)

    finding = (
        pad(2) + "{"
        + pad(3) + '"reverified_doubled_grid": %s,'
        + pad(3) + '"reverified_exact": %s,'
        + pad(3) + '"scenario_index": %s,'
        + pad(3) + '"witnesses": [%s'
        + pad(2) + "}"
    )
    corners = ",".join(pad(6) + f'"{key}": %s' for key in ("u1", "u2", "v1", "v2"))
    witness = (
        pad(4) + "{"
        + pad(5) + '"condition": %s,'
        + pad(5) + '"rectangle": {' + corners + pad(5) + "},"
        + pad(5) + '"value": %s'
        + pad(4) + "}"
    )
    return finding, witness, pad(3) + "]"


_FINDING_TEXT, _WITNESS_TEXT, _WITNESSES_CLOSE = _finding_templates()


def _finding_text(finding: dict) -> str:
    """A finding's item in the summary's text, as _json_text writes it,
    from the templates of ``_finding_templates``: a float is its
    float.__repr__, or json's spelling of nan and the infinities."""
    witnesses = []
    for w in finding["witnesses"]:
        r = w["rectangle"]
        numbers = [float.__repr__(x) for x in (r["u1"], r["u2"], r["v1"], r["v2"], w["value"])]
        numbers = [_JSON_SPECIALS.get(text, text) for text in numbers]
        witnesses.append(_WITNESS_TEXT % (json.dumps(w["condition"]), *numbers))
    return _FINDING_TEXT % (
        "true" if finding["reverified_doubled_grid"] else "false",
        "true" if finding["reverified_exact"] else "false",
        int.__repr__(finding["scenario_index"]),
        ",".join(witnesses) + _WITNESSES_CLOSE if witnesses else "]",
    )


def _encoded_findings(findings: list[dict]) -> tuple[str, int, dict]:
    """A range's findings as ``_SearchSummary`` takes them: their items in
    the summary's text, their number, and their witnesses' number per
    condition. The items are as _json_text writes those of a list that is
    a value of the summary dict: each on new lines at the indent of the
    list's items, with commas between them. Each is written from a
    template (``_finding_text``), in place of the indenting encoder."""
    text = ",".join(map(_finding_text, findings))
    by_condition: dict[str, int] = {}
    for finding in findings:
        for w in finding["witnesses"]:
            by_condition[w["condition"]] = by_condition.get(w["condition"], 0) + 1
    return text, len(findings), by_condition


def _encoded_range(seed: int, span: tuple[int, int], grid: int, tol: float):
    """``search_range`` of the scenarios span = (start, stop), encoded in
    the worker that ran it (``_encoded_findings``)."""
    return _encoded_findings(search_range(seed, *span, grid=grid, tol=tol))


class _SearchSummary:
    """The text of search_summary.json, produced as the ranges' encoded
    findings (``_encoded_findings``) arrive, in index order.

    It is the _json_text of the summary dict: ``fields``, the findings of
    every range, ``scenarios_with_violations`` and
    ``violations_by_condition``. _json_text sorts the keys, and "findings"
    sorts after "command", the one key before it, and before the two counts,
    so the text up to the findings' items is known at the start and the text
    after them once the last range is in. Iterating yields that head, each
    range's items and the tail; ``len`` is the number of characters yielded
    so far, the whole text's once iterated.
    """

    def __init__(self, fields: dict, ranges) -> None:
        self._fields, self._ranges, self._size = fields, ranges, 0

    def _around_findings(self, found: int, by_condition: dict) -> tuple[str, str]:
        """The summary's text before and after its findings' items."""
        counts = {"scenarios_with_violations": found, "violations_by_condition": by_condition}
        text = _json_text({**self._fields, **counts, "findings": []})
        cut = text.index('"findings": [') + len('"findings": [')
        # a list with items closes on a line of its own
        close = "\n" + " " * JSON_INDENT if found else ""
        return text[:cut], close + text[cut:]

    def _pieces(self):
        yield self._around_findings(0, {})[0]
        found, by_condition = 0, {}
        for text, count, conditions in self._ranges:
            yield ("," if found and count else "") + text
            found += count
            for name, n in conditions.items():
                by_condition[name] = by_condition.get(name, 0) + n
        yield self._around_findings(found, by_condition)[1]

    def __iter__(self):
        for piece in self._pieces():
            self._size += len(piece)
            yield piece

    def __len__(self) -> int:
        return self._size


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_search(cfg: RunConfig) -> int:
    """Scan seeded random max/min scenarios for same-corner pair violations.

    The same-corner pair composes into the bivariate bounds but is not in
    general an imprecise copula on the unit square; this command gathers
    grid evidence with the rectangle checks of ``check_imprecise_copula``.
    Like every rectangle check of a ``pipeline`` run, they pass a pair
    without a scan when its smallest gap upC - lowC, less the slack of the
    volume-plus-gap split, is at least -tol, and a pair with an order
    violation scans only the rows that can hold a worst rectangle (the
    ``imprecise`` module docstring). Each witness is re-verified by
    recomputing its condition on its rectangle from the generators' values
    at its corners, all the witnesses of a stack of grids at once.

    ``reverified_doubled_grid`` says that the same scan at doubled
    resolution would find each witness's condition again, and it is true
    without running that scan. The doubled grid, unit_grid(2n - 1), holds
    unit_grid(n) bit for bit at its even indices: the points of np.linspace,
    which unit_grid returns, are k * fl(1/(n - 1)) with the last set to 1,
    and fl(1/(2n - 2)) is fl(1/(n - 1))/2 exactly (a test pins this for
    every n up to MAX_GRID). copula_grid is elementwise, so the doubled grid
    holds every witness rectangle with the same corner values, and the
    scan's value of a rectangle depends on those alone. The doubled scan's minimum of each
    condition is therefore at most the witness's value (a test runs it on
    the findings of one search).

    The indices 0, ..., count - 1 are cut into ranges of SEARCH_RANGE, which
    run on forked worker processes, one per usable CPU, or, with one usable
    CPU, one range or no fork start method, one after another in this
    process. A range decodes its scenarios' draws from their raw PCG64
    words, so the summary depends only on the SeedSequence and PCG64
    streams, which NEP 19 keeps fixed across numpy versions. It stays in
    arrays from those draws to the text of its findings, and checks its
    scenarios as stacks of grids: one certificate for the stack, then a
    scan of each pair it does not pass, which on the pinned seeds is each
    pair with an order violation, then one re-verification of the stack's
    witnesses (``search_range``). It returns its findings already encoded
    as the summary's JSON text (``_encoded_range``), written from a
    template in the layout of the indenting encoder, in the workers, not
    this process. This process
    takes the ranges in index order as they finish and streams them into
    the summary's temporary file (``_SearchSummary``), so it holds the text
    of a range or a few, not every finding, and the summary is the same
    bytes however the ranges ran. An error in any scenario ends the search
    and removes the temporary file, so nothing is written.
    """
    import multiprocessing

    _make_output_dir(cfg.out)
    grid = cfg.grid if cfg.grid is not None else DEFAULT_SEARCH_GRID
    scan = functools.partial(_encoded_range, cfg.seed, grid=grid, tol=cfg.tol)
    spans = [(i, min(i + SEARCH_RANGE, cfg.count)) for i in range(0, cfg.count, SEARCH_RANGE)]
    workers = min(_usable_cpus(), len(spans))
    fields = {
        "command": "search",
        "model": "maxmin",
        "pair": "same-corner",
        "scenarios_scanned": cfg.count,
        "grid": grid,
        "tol": cfg.tol,
        "seed": cfg.seed,
    }
    path = cfg.out / "search_summary.json"
    # fork, not spawn: a worker starts from this process's memory instead of
    # importing numpy and shockbox again. The scan makes no BLAS call, so a
    # BLAS thread pool running at fork time is never used in a worker.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            _write_atomic(path, _SearchSummary(fields, pool.imap(scan, spans, chunksize=1)))
    else:
        _write_atomic(path, _SearchSummary(fields, map(scan, spans)))
    return 0


def cmd_emit(cfg: RunConfig) -> int:
    """Write generator, marginal and surface tables for one scenario."""
    if cfg.scenario is None:
        raise ConfigError("emit needs --scenario")
    scenario = load_scenario(cfg.scenario, cfg.grid)
    _make_output_dir(cfg.out)
    result = run_scenario(scenario, tol=cfg.tol)
    n = scenario.grid
    grid_us = _csv_grid(n)
    family = result.family
    generators = (family.low_phi, family.up_phi, family.low_second, family.up_second)
    for name, gen in zip(("low_phi", "up_phi", "low_companion", "up_companion"), generators):
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
