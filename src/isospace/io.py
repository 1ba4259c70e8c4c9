"""Text file formats: alternating matrix spaces, graphs, matrix tuples.

Formats are line-based with '#' comments.  emit(parse(text)) is canonical:
a fixed header, single-space separation, one trailing newline.

  ams  p n m    followed by m blocks of n lines of n residues
  graph n       followed by one "u v" line per edge, 1-indexed
  mats p s t m  followed by m blocks of s lines of t residues
"""

from __future__ import annotations

from .altspace import AltMatrixSpace
from .bipartite import MatrixSpace
from .errors import ParseError
from .ffield import Matrix, PrimeField
from .graphs import Graph


def _content_lines(text: str):
    """(lineno, stripped) pairs with comments and blank lines removed."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _ints(lineno: int, line: str, expect: int | None = None):
    parts = line.split()
    try:
        vals = [int(x) for x in parts]
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {line!r}")
    if expect is not None and len(vals) != expect:
        raise ParseError(f"line {lineno}: expected {expect} integers, got {len(vals)}")
    return vals


def _header(text: str, form: str):
    """(content lines, header line number, header integers) of a file whose
    first content line has the form `form`: its tag, then one integer per
    remaining name."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty file")
    lineno, header = lines[0]
    names, parts = form.split(), header.split()
    if len(parts) != len(names) or parts[0] != names[0]:
        raise ParseError(f"line {lineno}: expected header '{form}'")
    return lines, lineno, _ints(lineno, " ".join(parts[1:]))


def _field(lineno: int, p: int) -> PrimeField:
    try:
        return PrimeField(p)
    except ValueError as e:
        raise ParseError(f"line {lineno}: {e}")


def _read_blocks(lines, idx, field, rows, cols, count, what):
    mats = []
    for b in range(count):
        grid = []
        for r in range(rows):
            if idx >= len(lines):
                raise ParseError(f"unexpected end of file inside {what} block {b + 1}")
            lineno, line = lines[idx]
            idx += 1
            vals = _ints(lineno, line, cols)
            for c, v in enumerate(vals):
                if not (0 <= v < field.p):
                    raise ParseError(
                        f"line {lineno}, column {c + 1}: entry {v} out of range [0, {field.p})")
            grid.append(vals)
        mats.append(Matrix.from_rows(field, grid))
    if idx != len(lines):
        lineno, _ = lines[idx]
        raise ParseError(f"line {lineno}: trailing content after the last block")
    return mats


def _emit_blocks(header: str, mats, rows: int) -> str:
    out = [header]
    for m in mats:
        for i in range(rows):
            out.append(" ".join(str(e) for e in m.row(i)))
    return "\n".join(out) + "\n"


def parse_space(text: str) -> AltMatrixSpace:
    lines, lineno, (p, n, m) = _header(text, "ams p n m")
    field = _field(lineno, p)
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: need n >= 0 and m >= 0")
    mats = _read_blocks(lines, 1, field, n, n, m, "matrix")
    try:
        return AltMatrixSpace(field, n, mats)
    except ValueError as e:
        raise ParseError(str(e))


def emit_space(space: AltMatrixSpace) -> str:
    return _emit_blocks(f"ams {space.field.p} {space.n} {space.dim}", space.basis, space.n)


def parse_graph(text: str) -> Graph:
    lines, lineno, (n,) = _header(text, "graph n")
    if n < 0:
        raise ParseError(f"line {lineno}: need n >= 0")
    edges = []
    for lineno, line in lines[1:]:
        u, v = _ints(lineno, line, 2)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
        if u == v:
            raise ParseError(f"line {lineno}: loop at vertex {u}")
        edges.append((u - 1, v - 1))
    return Graph(n, edges)


def emit_graph(g: Graph) -> str:
    out = [f"graph {g.n}"]
    for (i, j) in g.edges:
        out.append(f"{i + 1} {j + 1}")
    return "\n".join(out) + "\n"


def parse_mats(text: str) -> MatrixSpace:
    field, s, t, mats = _parse_mats_blocks(text)
    return MatrixSpace.from_generators(field, s, t, mats)


def parse_mats_tuple(text: str):
    """Like parse_mats but keeps the blocks as an ordered tuple (no span
    reduction); used where the order and multiplicity matter."""
    field, _, _, mats = _parse_mats_blocks(text)
    return field, mats


def _parse_mats_blocks(text: str):
    """(field, s, t, blocks) of a 'mats p s t m' file, blocks in file order."""
    lines, lineno, (p, s, t, m) = _header(text, "mats p s t m")
    field = _field(lineno, p)
    if s < 1 or t < 1 or m < 0:
        raise ParseError(f"line {lineno}: need s, t >= 1 and m >= 0")
    return field, s, t, _read_blocks(lines, 1, field, s, t, m, "matrix")


def emit_mats(b: MatrixSpace) -> str:
    return _emit_blocks(f"mats {b.field.p} {b.s} {b.t} {b.dim}", b.basis, b.s)
