"""Shared helpers for the test suite: tiny CSV fixtures and a seeded
random query generator used by the engine-equivalence tests."""
from __future__ import annotations

import builtins
import os
import random
from pathlib import Path

import numpy as np

from insitu import db_engine
from insitu.errors import FormatError, LoadError
from insitu.query_model import parse_query
from insitu.tabular import (COMMA, CR, NEWLINE, CsvReader, column_from_strings, cut_rows,
                            scan_csv)


# Data files in and out of the CSV contract (README), as table t.
CONTRACT_INPUTS = {
    "ragged": b"a,b\n1,2\n3\n4,5\n6,7\n",
    "blank-inside": b"a,b\n1,2\n\n3,4\n",
    "trailing-blanks": b"a,b\n1,2\n\n\n",
    "cr-cr-lf-header": b"a,b\r\r\n1,2\r\n",
    "crlf": b"a,b\r\n1,x\r\n3,4\r\n",
    "no-final-newline": b"a,b\n1,2\n3,4",
    "header-only": b"a,b\n",
    "header-only-no-newline": b"a,b",
}


def cut_fields(buf: bytes, rowmap, wanted):
    """The raw field bytes of the wanted column indices, cut from the
    positional map of `buf`, one column at a time: one `bytes` per field,
    the reference the array cuts (`cut_column`, `cut_rows`) are tested
    against."""
    for j in wanted:
        starts, ends = rowmap.bounds(j)
        yield [buf[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def split_whole(buf: bytes, ncols: int, path):
    """The structure step over the whole of `buf`, data lines from its
    start, at once, with masks and a delimiter array sized by it: the
    reference the windowed `LineSplit` is tested against. Returns its map's
    line starts and field ends (from each line start), as int64 arrays, or
    raises its FormatError."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    delims = np.flatnonzero((arr == COMMA) | (arr == NEWLINE))
    nl_at = np.flatnonzero(arr[delims] == NEWLINE)
    newlines = delims[nl_at]
    line_starts = np.concatenate(([0], newlines + 1))[:-1]
    line_ends = newlines - ((newlines > line_starts) & (arr[newlines - 1] == CR))
    filled = np.flatnonzero(line_starts != line_ends)
    nrows = int(filled[-1]) + 1 if len(filled) else 0

    commas = np.diff(nl_at[:nrows], prepend=-1) - 1
    bad = np.flatnonzero(commas != ncols - 1)
    if len(bad):
        row = int(bad[0])
        raise FormatError(
            f"{path}: data row {row + 1} has {int(commas[row]) + 1} fields, "
            f"expected {ncols}"
        )

    grid = delims[: nrows * ncols].reshape(nrows, ncols)
    grid[:, -1] = line_ends[:nrows]
    line_starts = line_starts[:nrows]
    return line_starts, grid - line_starts[:, None]


def load_whole(csv_path, directory, journal=False, columns=None):
    """The whole-buffer load, the reference the windowed `DbEngine.load_table`
    is tested against: `scan_csv` over the whole file, the first-rows type
    check on each whole text column, then the store's files (`.col`,
    `meta`, and with `journal` the file's bytes after its header line)
    written into `directory`. Returns the load's `input_bytes`, or raises
    the load's error (a ragged row, then a text field that is not UTF-8, in
    `columns` order, then a type conflict, in header order)."""
    scan = scan_csv(csv_path, columns)
    if columns is None:
        attrs, input_bytes = scan.header, scan.file_bytes
    else:
        kept = [j for j, name in enumerate(scan.header) if name in scan.columns]
        attrs = [scan.header[j] for j in kept]
        field_text = sum(int((e - s).sum()) for s, e in map(scan.rowmap.bounds, kept))
        input_bytes = (len((",".join(attrs) + "\n").encode("utf-8"))
                       + field_text + scan.row_count * len(attrs))
    for attr in attrs:
        col = scan.columns[attr]
        if not col.is_numeric:
            first = np.full(len(col.words), len(col))
            np.minimum.at(first, col.values, np.arange(len(col)))
            for i in np.sort(first).tolist():
                v = col.words[col.values[i]]
                if not column_from_strings([v.encode("utf-8")]).is_numeric:
                    break
            if i >= db_engine._TYPE_INFER_ROWS:
                raise LoadError(
                    f"type conflict in column {attr!r}: row {i + 1} value {v!r} is not numeric"
                )
    directory = Path(directory)
    directory.mkdir(parents=True)
    store = db_engine.TableStore(directory, attrs, {}, scan.row_count)
    if journal:
        with open(csv_path, "rb") as src:
            src.readline()
            (directory / "journal.log").write_bytes(src.read())
    for attr in attrs:
        col = scan.columns[attr]
        store.types[attr] = col.type
        store.minmax[attr] = db_engine._column_minmax(col)
        db_engine._write_column(store.col_path(attr), col)
    db_engine._write_meta(store.meta_path, store)
    return input_bytes


def read_whole(path, rowmap=None):
    """A data file's data lines read whole and mapped
    (`CsvReader.read_rest`, as a full scan reads): the buffer, its map and
    the header names."""
    with CsvReader(path) as reader:
        return (*reader.read_rest(rowmap), reader.header)


def slice_whole(source, out, attrs):
    """The whole-buffer slicer, the reference the windowed one is tested
    against: the file read whole and mapped (`read_whole`), then its kept
    columns' rows gathered (`cut_rows`) into `out`."""
    with CsvReader(source) as reader:
        keep = reader.indices(attrs)
        raw, rowmap = reader.read_rest()
    header = reader.header
    with open(out, "wb") as o:
        o.write((",".join(header[i] for i in keep) + "\n").encode("utf-8"))
        o.writelines(cut_rows(raw, rowmap, keep))


def dir_bytes(directory) -> dict[str, bytes]:
    """Every file under `directory`, by path relative to it, with its bytes."""
    directory = Path(directory)
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def counting_opens(monkeypatch, paths) -> dict[str, int]:
    """Count the `open` calls on each of `paths` from now on."""
    opens = {str(p): 0 for p in paths}
    real = builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) in opens:
            opens[os.fspath(file)] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    return opens


def write_csv(path, header, rows):
    """Write a small CSV from string fields; returns the path."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
    return path


class TableInfo:
    def __init__(self, name, path, attrs, numeric_ranges):
        self.name = name
        self.path = path
        self.attrs = attrs
        self.numeric_ranges = numeric_ranges  # attr -> (lo, hi)


def random_select(rng: random.Random, tables: list[TableInfo], max_joins=2) -> str:
    """Render a random statement inside the supported subset."""
    n_joins = rng.choice([0, 0, 0, 0, 1, 1, max_joins])
    n_joins = min(n_joins, len(tables) - 1)
    chosen = [tables[0]] if n_joins else [rng.choice(tables)]
    pool = [t for t in tables if t is not chosen[0]]
    rng.shuffle(pool)
    chosen += pool[:n_joins]

    multi = len(chosen) > 1

    def ref(table, attr):
        return f"{table.name}.{attr}" if multi else attr

    joins = []
    for i in range(1, len(chosen)):
        prev = chosen[rng.randrange(i)]
        joins.append(
            f"JOIN {chosen[i].name} ON {prev.name}.objid = {chosen[i].name}.objid"
        )

    proj_table = rng.choice(chosen)
    is_count = rng.random() < 0.2
    if is_count:
        proj = f"COUNT({ref(proj_table, rng.choice(proj_table.attrs))})"
    else:
        n_proj = rng.randint(1, 3)
        parts = []
        for _ in range(n_proj):
            t = rng.choice(chosen)
            parts.append(ref(t, rng.choice(t.attrs)))
        proj = ", ".join(parts)

    preds = []
    for _ in range(rng.randint(0, 3)):
        t = rng.choice(chosen)
        attr = rng.choice(list(t.numeric_ranges))
        lo, hi = t.numeric_ranges[attr]
        lit = rng.uniform(lo, hi)
        op = rng.choice(["<", ">", "<=", ">=", "="])
        preds.append(f"{ref(t, attr)} {op} {lit:.4f}")

    stmt = f"SELECT {proj} FROM {chosen[0].name}"
    if joins:
        stmt += " " + " ".join(joins)
    if preds:
        stmt += " WHERE " + " AND ".join(preds)
    if not is_count and rng.random() < 0.3:
        stmt += f" LIMIT {rng.randint(1, 50)}"
    return stmt


def parse_select(stmt):
    ast = parse_query(stmt)
    return ast
