#!/usr/bin/env python3
"""Render bwsim experiment output as charts.

Consumes the machine-readable output of `bwsim --format=json` or
`--format=csv` (one table per experiment) and renders the paper-style
figures:

    # line chart: IPC vs added latency (Fig. 3)
    ./build/bwsim --format=json fig3  > fig3.json
    python3 scripts/plot.py fig3 fig3.json -o fig3.png

    # grouped bars: speedup per bandwidth-doubling config (Fig. 10)
    ./build/bwsim --format=json fig10 > fig10.json
    python3 scripts/plot.py fig10 fig10.json -o fig10.png

    # fig11 (core-frequency scaling) and fig12 (hierarchy variants)
    # work the same way.

matplotlib is optional: without it the script prints the parsed table
to stdout and exits with status 2, so it can run in minimal containers
as a format check.
"""

import argparse
import csv
import io
import json
import sys

KINDS = ("fig3", "fig10", "fig11", "fig12")


def load_tables(path):
    """Parse `bwsim --format=json|csv` output into a list of tables.

    Each table is (headers, rows) with rows as lists of strings. The
    format is sniffed: '{' starts JSON Lines, anything else is CSV
    (blank lines separate tables in both formats).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tables = []
    for block in text.split("\n\n"):
        block = block.strip()
        if not block:
            continue
        if block.startswith("{"):
            for line in block.splitlines():
                obj = json.loads(line)
                headers = obj["headers"]
                rows = [[r.get(h, "") for h in headers] for r in obj["rows"]]
                tables.append((headers, rows))
        else:
            parsed = list(csv.reader(io.StringIO(block)))
            if parsed:
                tables.append((parsed[0], parsed[1:]))
    if not tables:
        raise SystemExit(f"{path}: no tables found")
    return tables


def to_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def print_table(headers, rows):
    print("\t".join(headers))
    for row in rows:
        print("\t".join(row))


def get_pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        return plt
    except ImportError:
        return None


def plot_lines(plt, headers, rows, title, xlabel, ylabel, out):
    xs = [to_float(h) for h in headers[1:]]
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for row in rows:
        ys = [to_float(c) for c in row[1:]]
        style = "--o" if row[0] == "AVG" else "-"
        ax.plot(xs, ys, style, label=row[0], linewidth=2 if row[0] == "AVG" else 1)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.set_title(title)
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=7, ncol=2)
    fig.tight_layout()
    fig.savefig(out, dpi=150)


def plot_grouped_bars(plt, headers, rows, title, ylabel, out):
    configs = headers[1:]
    benches = [r[0] for r in rows]
    fig, ax = plt.subplots(figsize=(max(7, 0.5 * len(benches) * len(configs)), 4.5))
    width = 0.8 / len(configs)
    for ci, cfg in enumerate(configs):
        xs = [bi + ci * width for bi in range(len(benches))]
        ys = [to_float(r[1 + ci]) or 0.0 for r in rows]
        ax.bar(xs, ys, width=width, label=cfg)
    ax.set_xticks([bi + 0.4 - width / 2 for bi in range(len(benches))])
    ax.set_xticklabels(benches, rotation=45, ha="right", fontsize=8)
    ax.axhline(1.0, color="black", linewidth=0.8)
    ax.set_ylabel(ylabel)
    ax.set_title(title)
    ax.grid(True, axis="y", alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(out, dpi=150)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=KINDS, help="which figure to render")
    ap.add_argument("input", metavar="FILE",
                    help="bwsim --format=json|csv output")
    ap.add_argument("-o", "--out", default=None,
                    help="output image (default: <kind>.png)")
    args = ap.parse_args()
    out = args.out or f"{args.kind}.png"

    headers, rows = load_tables(args.input)[0]
    plt = get_pyplot()
    if plt is None:
        print_table(headers, rows)
        print("matplotlib not available; parsed only", file=sys.stderr)
        raise SystemExit(2)
    if args.kind == "fig3":
        plot_lines(plt, headers, rows, "Fig. 3: sensitivity to added memory latency",
                   "added latency (core cycles)", "normalized IPC", out)
    elif args.kind == "fig10":
        plot_grouped_bars(plt, headers, rows,
                          "Fig. 10: speedup from doubling bandwidth",
                          "speedup over baseline", out)
    elif args.kind == "fig11":
        plot_grouped_bars(plt, headers, rows,
                          "Fig. 11: core-frequency scaling",
                          "speedup over 1.4 GHz baseline", out)
    elif args.kind == "fig12":
        plot_grouped_bars(plt, headers, rows,
                          "Fig. 12: improved memory hierarchies",
                          "speedup over baseline", out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
