#!/usr/bin/env python3
"""Normalizes bench outputs into the standard BENCH_*.json document.

Every bench (and fbcload) can already emit a machine-readable table: the
harness's --json flag prints a JSON array of row objects, and --csv prints
the same rows as CSV. This script wraps one or more such outputs into the
checked-in BENCH_<name>.json format:

    {
      "benchmark": "<name>",
      "schema": 1,
      "runs": [ {<row>}, ... ]
    }

Inputs may be files or "-" for stdin; each may be a JSON array (preferred)
or CSV with a header line. Rows from all inputs are concatenated in order.
An optional --label key=value is attached to every row of the *following*
input, so several differently-configured runs can be merged:

    fbcload --inline --json --scenario=henp  > henp.json
    fbcload --inline --json --scenario=climate > climate.json
    bench_to_json.py --name serving henp.json climate.json \
        --out serving-adhoc.json

CSV cells that parse as numbers are emitted as numbers, mirroring
TextTable::print_json.
"""

import argparse
import csv
import io
import json
import sys


def parse_rows(text, source):
    """Returns a list of row dicts from JSON-array or CSV text.

    Bench output interleaves human narration (titles, expectation notes)
    with one or more tables; every JSON array / CSV table found is
    concatenated and everything else is ignored.
    """
    rows = extract_json_arrays(text)
    if rows is not None:
        return rows
    rows = extract_csv_rows(text)
    if rows is None:
        raise ValueError(f"{source}: no JSON array or CSV table found")
    return rows


def extract_json_arrays(text):
    """All line-starting JSON arrays of objects in `text`, or None."""
    decoder = json.JSONDecoder()
    rows = []
    found = False
    pos = 0
    while True:
        start = text.find("[", pos)
        if start == -1:
            break
        line_start = text.rfind("\n", 0, start) + 1
        if text[line_start:start].strip():  # mid-line '[': not a table
            pos = start + 1
            continue
        try:
            value, end = decoder.raw_decode(text, start)
        except ValueError:
            pos = start + 1
            continue
        if isinstance(value, list) and value and all(
                isinstance(row, dict) for row in value):
            rows.extend(value)
            found = True
        pos = max(end, start + 1)
    return rows if found else None


def extract_csv_rows(text):
    """Rows of every CSV table in `text` (blocks of comma lines), or None.

    Within a block, leading lines whose parsed width differs from the
    data rows' width are narration that happens to contain commas.
    """
    rows = []
    block = []
    for line in text.splitlines() + [""]:
        if "," in line:
            block.append(line)
            continue
        if block:
            parsed = [next(csv.reader([b])) for b in block]
            width = len(parsed[-1])
            while parsed and len(parsed[0]) != width:
                parsed.pop(0)
            if len(parsed) >= 2:
                header = parsed[0]
                rows.extend({key: coerce(cell)
                             for key, cell in zip(header, row)}
                            for row in parsed[1:])
            block = []
    return rows or None


def parse_histogram(cell):
    """Parses a log2-bucket histogram cell into {bucket_index: count}.

    fbcload --hist and fbcsim --obs emit raw bucket columns as
    "idx:count|idx:count" (e.g. "0:3|7:12|20:1"). Returns None when the
    cell is not one.
    """
    if not isinstance(cell, str) or ":" not in cell:
        return None
    buckets = {}
    for part in cell.split("|"):
        index, sep, count = part.partition(":")
        if not sep or not index.isdigit() or not count.isdigit():
            return None
        buckets[int(index)] = int(count)
    return buckets


def coerce(cell):
    """Numeric cells become numbers, like TextTable::print_json;
    histogram bucket cells become {bucket_index: count} dicts."""
    buckets = parse_histogram(cell)
    if buckets is not None:
        return buckets
    try:
        as_float = float(cell)
    except ValueError:
        return cell
    if as_float.is_integer() and "." not in cell and "e" not in cell.lower():
        return int(as_float)
    return as_float


def main() -> int:
    parser = argparse.ArgumentParser(
        description="wrap bench --json/--csv outputs into BENCH_<name>.json")
    parser.add_argument("--name", required=True,
                        help="benchmark name recorded in the document")
    parser.add_argument("--out", default="-",
                        help="output path (default stdout)")
    parser.add_argument("--label", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="attach key=value to rows of the next input; "
                             "repeatable, position-sensitive")
    parser.add_argument("inputs", nargs="+",
                        help="bench output files, or - for stdin")
    args = parser.parse_args()

    # --label flags apply to the input that follows them on the command
    # line; argparse loses interleaving, so recover it from sys.argv.
    labels_by_input = {}
    pending = {}
    position = 0
    argv = sys.argv[1:]
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--label" or arg.startswith("--label="):
            raw = arg.split("=", 1)[1] if "=" in arg else argv[i + 1]
            i += 1 if "=" in arg else 2
            key, _, value = raw.partition("=")
            pending[key] = coerce(value)
            continue
        if arg in ("--name", "--out"):
            i += 2
            continue
        if arg.startswith("--"):
            i += 1
            continue
        labels_by_input[position] = pending
        pending = {}
        position += 1
        i += 1

    runs = []
    for index, path in enumerate(args.inputs):
        text = (sys.stdin.read() if path == "-"
                else open(path, encoding="utf-8").read())
        rows = parse_rows(text, path)
        extra = labels_by_input.get(index, {})
        for row in rows:
            for key, value in row.items():
                buckets = parse_histogram(value)
                if buckets is not None:
                    row[key] = buckets
            runs.append({**extra, **row})

    document = {"benchmark": args.name, "schema": 1, "runs": runs}
    rendered = json.dumps(document, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
