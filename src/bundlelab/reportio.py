"""Report assembly and deterministic on-disk formats.

Three artifact kinds, all plain text so any plotting or diffing tool can
consume them:

* CSV tables — comma separated, one header row, no quoting (fields are
  sanitized so commas cannot appear);
* a markdown summary — the only place a timestamp is allowed;
* bare two-column plot data (``eps  delta`` rows, ``#`` comments).

Floats are rendered with ``repr``, which is the shortest round-trip form
and stable across runs, so identical run configurations produce
byte-identical CSV and plot-data bodies.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ReportBundle",
    "csv_table",
    "format_value",
    "plot_data",
    "suite_reports_table",
    "suite_summary_markdown",
    "report_data_files",
]


def format_value(x) -> str:
    """Deterministic text form of one CSV/plot field (no commas, ever)."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x).replace(",", ";").replace("\n", " ")


def csv_table(header, rows) -> str:
    lines = [",".join(format_value(h) for h in header)]
    for row in rows:
        lines.append(",".join(format_value(c) for c in row))
    return "\n".join(lines) + "\n"


def plot_data(columns: dict, comment: str) -> str:
    """Bare columnar plot data: a ``# comment`` line, a ``# names`` header,
    then whitespace rows."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    lines = [f"# {comment}", "# " + "  ".join(names)]
    for i in range(len(arrays[0])):
        lines.append("  ".join(repr(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


@dataclass
class ReportBundle:
    """Everything one command run wants to persist."""

    out_dir: Path
    summary: str = ""
    tables: dict = field(default_factory=dict)
    data_files: dict = field(default_factory=dict)

    def write(self) -> list:
        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if self.summary:
            path = out / "summary.md"
            path.write_text(self.summary)
            written.append(path)
        for name, body in sorted(self.tables.items()):
            path = out / name
            path.write_text(body)
            written.append(path)
        for name, body in sorted(self.data_files.items()):
            path = out / name
            path.write_text(body)
            written.append(path)
        return written


# -- suite-report rendering ----------------------------------------------------


SUITE_CSV_HEADER = (
    "suite", "tag", "instance", "seed", "check", "residual",
    "threshold", "passed", "verdict", "expected", "witness",
)


def suite_reports_table(reports, seed) -> str:
    rows = []
    for r in reports:
        for c in r.checks:
            rows.append(
                (r.suite, r.tag, r.instance, seed, c.name, c.residual,
                 c.threshold, c.passed, r.verdict, r.expected, c.witness)
            )
    return csv_table(SUITE_CSV_HEADER, rows)


def report_data_files(reports) -> dict:
    """One two-column .dat file per recorded curve series."""
    files = {}
    for r in reports:
        eps = r.data.get("epsilon")
        if eps is None:
            continue
        for name, values in sorted(r.data.items()):
            if name == "epsilon":
                continue
            fname = f"{r.suite}-{r.instance[:12]}-{name}.dat"
            files[fname] = plot_data(
                {"epsilon": eps, "delta": values},
                comment=f"suite={r.suite} instance={r.instance} series={name}",
            )
    return files


def suite_summary_markdown(title: str, run_digest: str, seed, reports) -> str:
    """Markdown run summary; the header line holds the only timestamp."""
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    lines = [f"# {title}", "", f"generated: {stamp}",
             f"run-config digest: `{run_digest}`", f"seed: {seed}", ""]
    by_suite: dict = {}
    for r in reports:
        agg = by_suite.setdefault(r.suite, [0, 0, 0])
        agg[0] += 1
        agg[1] += r.verdict == "FAIL"
        agg[2] += r.unexpected
    lines.append("| suite | reports | failing | unexpected |")
    lines.append("| --- | --- | --- | --- |")
    for suite in sorted(by_suite):
        n, f_, u = by_suite[suite]
        lines.append(f"| {suite} | {n} | {f_} | {u} |")
    lines.append("")
    unexpected = [r for r in reports if r.unexpected]
    if unexpected:
        lines.append("## Unexpected verdicts")
        for r in unexpected:
            lines.append(f"- {r.suite}/{r.tag} on `{r.instance}`: "
                         f"{r.verdict} (expected {r.expected})")
        lines.append("")
        lines.append("overall: **UNEXPECTED VERDICTS PRESENT**")
    else:
        lines.append("overall: all verdicts as expected")
    lines.append("")
    return "\n".join(lines)
