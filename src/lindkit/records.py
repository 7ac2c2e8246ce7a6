"""The JSON forms of lindkit's documents and command-line records.

Each document's one strict reader is built from the field readers here,
which report every fault as a ConfigParse naming the key at fault.  A record
is written as ``json.dumps(record, sort_keys=True, indent=2,
allow_nan=False)`` plus a newline would write it, byte for byte, but without
``json``'s pure-Python indenting encoder; the encoder takes the values
records hold (:func:`canonical_json`) and refuses the rest.  A table handed
over as its columns (:class:`Rows`), such as a Ramsey scan's fringe or the
evolved states, is written by one join per table: its keys sorted and
escaped once into the texts between the cells, each scalar column formatted
once, and the matrices of all its matrix columns together, entry by entry in
row-major order, by a numpy kernel that writes float.__repr__'s texts
(:func:`_repr_texts`) once they hold enough entries to repay it.
"""
from __future__ import annotations

import contextlib
import functools
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigParse, LindkitError

# the errors a value of the wrong type or form raises on its way to a number
_VALUE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def check_keys(doc, where: str, required: set[str], optional: set[str] = frozenset()):
    """``doc``, checked to be an object with the ``required`` keys and no
    others but ``optional`` ones; a missing or unknown key is named."""
    if not isinstance(doc, dict):
        raise ConfigParse(f"{where}: expected a JSON object", field=where)
    missing = required - doc.keys()
    if missing:
        raise ConfigParse(f"{where}: missing keys {sorted(missing)}", field=sorted(missing)[0])
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigParse(f"{where}: unknown keys {sorted(unknown)}", field=sorted(unknown)[0])
    return doc


def field(doc: dict, key: str, parse, *args, **kwargs):
    """``parse(doc[key], ...)``: a value of the wrong type or form becomes a
    ConfigParse naming ``key``; a lindkit error keeps its own type."""
    try:
        return parse(doc[key], *args, **kwargs)
    except _VALUE_ERRORS as exc:
        raise ConfigParse(f"{key}: {exc}", field=key) from exc


@contextlib.contextmanager
def within(key: str):
    """Report every error of the block, a ConfigParse naming another key
    included, as a ConfigParse with its message naming ``key``."""
    try:
        yield
    except (LindkitError, *_VALUE_ERRORS) as exc:
        raise ConfigParse(str(exc), field=key) from exc


@functools.cache
def _numeric(kind: type) -> bool:
    """Whether a value of type ``kind`` is a number: an int or a float, and
    never a bool, which Python counts as an int."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _entry_types(value: list) -> set:
    """The types of the entries of ``value``, with lists in it entered."""
    kinds = set(map(type, value))
    if list in kinds:
        kinds.remove(list)
        for item in value:
            if type(item) is list:
                kinds |= _entry_types(item)
    return kinds


def real(value, low: float | None = None, strict: bool = False) -> float:
    """A finite number, at least ``low`` (above it if ``strict``)."""
    if not _numeric(type(value)):
        raise TypeError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x) or low is not None and (x < low or strict and x == low):
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValueError(f"expected a finite number{bound}, got {value!r}")
    return x


def reals(value, shape: tuple | None = None) -> np.ndarray:
    """A list of finite numbers as a float array; given ``shape``, a flat
    list of as many numbers as it holds, or lists nested in that shape.
    Every entry is checked, since numpy reads ``[true, 1.0]`` as numbers."""
    if not isinstance(value, list) or not all(map(_numeric, _entry_types(value))):
        raise TypeError("expected a list of numbers")
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    if shape is not None and a.shape not in ((math.prod(shape),), shape):
        raise ValueError(f"expected {math.prod(shape)} entries in shape {shape} or flat, "
                         f"got shape {a.shape}")
    return a


def integer(value, low: int) -> int:
    if not _numeric(type(value)):
        raise TypeError(f"expected an integer >= {low}, got {value!r}")
    n = int(value)
    if n != value or n < low:
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    return n


def one_of(value, options: tuple):
    if value not in options:
        raise ValueError(f"expected one of {list(options)}, got {value!r}")
    return value


def complex_matrix(doc: dict, re_key: str, im_key: str, shape: tuple) -> np.ndarray:
    """The complex array of ``shape`` whose real and imaginary parts are the
    lists ``doc[re_key]`` and ``doc[im_key]`` (zero when absent), both flat
    and row-major or both nested; placed, not added, so every bit survives,
    a zero imaginary part's sign included."""
    m = field(doc, re_key, reals, shape).astype(complex)
    if im_key in doc:
        im = field(doc, im_key, reals, shape)
        if im.shape != m.shape:
            raise ConfigParse(f"{im_key}: expected the shape of {re_key}", field=im_key)
        m.imag = im
    return m.reshape(shape)


def complex_parts(re_key: str, im_key: str, m) -> dict:
    """The parts of ``m`` in the form :func:`complex_matrix` reads."""
    flat = np.asarray(m).reshape(-1)
    return {re_key: flat.real.tolist(), im_key: flat.imag.tolist()}


def canonical_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    written directly, for the records the commands write: dicts with str
    keys, lists, tuples, str, int, float, bool and None, and :class:`Rows`.

    With ``indent`` set, ``json`` formats through its pure-Python encoder,
    which costs an interpreter round trip per value; records here are mostly
    long lists of floats (the evolved states), so a list of floats only is one
    join over ``float.__repr__``, the repr ``json`` uses, checked with one
    ``math.isfinite`` pass.  A :class:`Rows` is written as the list of its
    rows' dicts would be, by one join per table (:func:`_rows_texts`).  As in
    ``json``, keys are in ``sorted(doc.items())`` order, int and float
    subclasses are written as plain numbers and strings through
    ``encode_basestring_ascii``.  A NaN or infinity raises ``json``'s
    ValueError, and a key that is not a str or any other value TypeError;
    a circular reference is not looked for, since no record holds one.
    """
    out = []
    _encode(doc, out, "\n", {})
    out.append("\n")
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _float_texts(items) -> list:
    """``float.__repr__`` of each item: a TypeError at an item that is not a
    float, ``json``'s ValueError at the first NaN or infinity."""
    texts = list(map(float.__repr__, items))
    if not all(map(math.isfinite, items)):
        for x in items:
            _float_text(x)  # raises at the first NaN or infinity
    return texts


def _scalar_text(o) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return _LITERALS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class Rows:
    """A table for canonical_json to write, held as its columns: the rows
    ``{key: columns[key][i] for key in columns}`` for each i, written as
    ``json`` writes that list of dicts.  A column is a sequence of scalars
    (str, int, float, bool, None) or a 3-D array, a stack of finite float64
    square matrices, which gives each row the row-major list of its matrix,
    every entry written as ``float.__repr__`` writes it.
    The keys in insertion order are the header of the table's CSV.  Columns
    of unequal length raise ValueError."""

    __slots__ = ("columns",)

    def __init__(self, **columns):
        sizes = set(map(len, columns.values()))
        if len(sizes) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(sizes)}")
        self.columns = columns


def _rows_texts(rows: Rows, inner: str, texts: dict) -> str:
    """The rows of ``rows`` as :func:`_encode` writes their dicts, separated
    by ``"," + inner``, as one text, empty for no rows: one ``"".join`` that
    interleaves the texts between the cells, the keys sorted and escaped
    into them once per table, with the cells: each scalar column formatted
    once (a float column by :func:`_float_texts`) into ``texts``, by its id,
    and the matrices of every matrix column in one call of
    :func:`_matrix_texts`.  A matrix column that is not a stack of square
    float64 matrices raises TypeError, and one with a NaN or infinity
    ``json``'s ValueError, in key order among the scalar columns' faults."""
    field = inner + "  "
    # gaps[k] is the text before the cell of key k, close the text after
    # the last cell of a row, before its closing brace
    gaps, cells, close, n = [], [], "", 0
    stacks, slots = [], []  # the matrix columns and their places in cells
    for key in sorted(rows.columns):
        column = rows.columns[key]
        n = len(column)
        gaps.append((close + "," if gaps else "{") + field + encode_basestring_ascii(key) + ": ")
        if isinstance(column, np.ndarray) and column.ndim == 3:
            if column.dtype != float or not column.shape[1] == column.shape[2] > 0:
                raise TypeError("a matrix column must be a stack of square float64 matrices")
            if not np.isfinite(column).all():  # json's ValueError at the first NaN or infinity
                _float_texts(column.reshape(-1).tolist())
            gaps[-1] += "[" + field + "  "
            stacks.append(column)
            slots.append(len(cells))
            cells.append(None)
            close = field + "]"
            continue
        close = ""
        if id(column) not in texts:  # a column met before in this call is not formatted again
            try:
                texts[id(column)] = _float_texts(column)
            except TypeError:  # not floats only
                texts[id(column)] = list(map(_scalar_text, column))
        cells.append(texts[id(column)])
    if not n:  # no columns, or columns of no rows
        return ""
    for slot, matrices in zip(slots, _matrix_texts(stacks, "," + field + "  ")):
        cells[slot] = matrices
    end = close + inner + "}"
    lanes = [repeat(gap) for gap in gaps]
    # a row after the first starts with the end of the row before it
    lanes[0] = chain(gaps[:1], repeat(end + "," + inner + gaps[0]))
    table = zip(*chain.from_iterable(zip(lanes, cells)))
    return "".join(chain(chain.from_iterable(table), (end,)))


def _encode(o, out: list, nl: str, texts: dict) -> None:
    """Append the canonical form of ``o`` to ``out``.  ``nl`` is a newline
    and the indentation of the line ``o`` ends on, and ``texts`` holds the
    texts of the :class:`Rows` scalar columns formatted so far in this call.
    Anything but a list, tuple, dict or :class:`Rows` is written by
    :func:`_scalar_text`."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        try:
            out += ("[", inner, ("," + inner).join(_float_texts(o)), nl, "]")
            return
        except TypeError:  # an item that is not a float: item by item below
            pass
        out.append("[")
        for k, item in enumerate(o):
            out.append("," + inner if k else inner)
            _encode(item, out, inner, texts)
        out += (nl, "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{")
        for k, (key, value) in enumerate(sorted(o.items())):
            out += ("," + inner if k else inner, encode_basestring_ascii(key), ": ")
            _encode(value, out, inner, texts)
        out += (nl, "}")
    elif isinstance(o, Rows):
        text = _rows_texts(o, nl + "  ", texts)
        out += ("[", nl + "  ", text, nl, "]") if text else ("[]",)
    else:
        out.append(_scalar_text(o))


# The texts of a matrix column.  float.__repr__ writes the shortest decimal
# string that reads back as the double, the one nearest to it among those
# (Steele & White 1990; Gay's dtoa, mode 0), at about 0.6 us a value.  The
# kernel below finds the same digits for a whole array in double-double
# numpy arithmetic (the problem of Adams 2018, "Ryu", without its 128-bit
# integers), and lays them out as float.__repr__ does.  With y = |x| 10^(16-e)
# in [1e16, 2e17) and x's rounding interval scaled with it, the digits are
# the multiple of the largest power of ten in that interval that is nearest
# to y.  The interval is at most 45 units wide, so a multiple of 100 in it is
# the only one, and round(y) is always in it.  An entry whose scaling leaves
# the table, or whose interval end, or tie between two candidates, lies
# within _MARGIN of its boundary is written by float.__repr__ instead.

# 10^k for k in [_KMIN, _KMAX]: an |x| in [_LOW, _HIGH) takes k = 16 - e
_KMIN, _KMAX = -270, 300
_LOW, _HIGH = 1e-283, 1e285
_SPLIT = 2.0**27 + 1  # Dekker's splitter: a double as two halves of 26 bits
# y is carried to within about 1e-14 (2^-104 of 2e17): a decision this much
# nearer its boundary is left to float.__repr__
_MARGIN = 2.0**-32
_DROP = 0xFF  # a canvas byte that is no character, deleted from the text
# A canvas row: the sign and "0.000" (bytes 0-5), 17 (digit, point) pairs
# (6-39), "e+ddd" (40-44), two bytes unused and the terminator (47); as six
# 8-byte words, the first five are a leading digit and four four-digit groups
_WIDTH = 48
# The fewest entries a table's matrix columns hold for the kernel to write
# them.  Its fixed cost is about 0.2 ms, and float.__repr__ costs about
# 0.55 us an entry: ``tools/evolve_sweep.py --case matrix-texts`` on two
# copies of this module with this constant set to 10**9 and to 0 read 154
# against 220 us at 256 entries, 285 against 270 us at 512 and 569 against
# 343 us at 1024 (minima of 11 rounds, 2-core VM).
_REPR_MIN_ENTRIES = 512
# the most entries a canvas holds: 2048 rows of _WIDTH bytes stay below the
# C allocator's 128 KiB threshold for mapping fresh pages from the system
_REPR_CHUNK = 2048


@functools.cache
def _repr_tables():
    """The kernel's tables, built on its first use: 10^k for k in
    [_KMIN, _KMAX] as (hi, lo, hi's upper half, hi's lower half), hi + lo
    within 2^-106 relative of 10^k; the canvas words of the four-digit
    groups 0000-9999, of the leading digits 0-9, of the exponent suffixes
    "e-400" to "e+399" and of no suffix, by value, 10000 + digit, 10410 +
    exponent and 10810; the trailing zeros of each four-digit group; and
    the canvas rows without their words, by (sign, layout, digit count)."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:  # int true division rounds correctly
            hi.append(1 / 10**-k)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * 10**-k) / (b * 10**-k))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    big = c - (c - hi)
    words = np.zeros((10811, 8), np.uint8)  # each digit before an empty point
    words[:10000, ::2] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    words[10000:10010, 6] = np.arange(48, 58)
    ex = np.arange(-400, 400)
    a, three = np.abs(ex), np.abs(ex) >= 100
    words[10010:10810, 0] = ord("e")
    words[10010:10810, 1] = np.where(ex < 0, ord("-"), ord("+"))
    words[10010:10810, 2:5] = np.where(three, [a // 100, a // 10 % 10, a % 10],
                                       [a // 10 % 10, a % 10, np.full_like(a, _DROP - 48)]).T + 48
    words[10810, :5] = _DROP
    trailing = np.zeros(10000, np.intp)  # the trailing zeros of each four-digit group
    for place in (10, 100, 1000, 10000):
        trailing += np.arange(10000) % place == 0
    # layout 3 + decpt for decpt in [-3, 16], the fixed form; 20 the exponent form
    layout, nd, j = np.arange(21)[:, None, None], np.arange(1, 18)[:, None], np.arange(17)
    decpt, fixed = layout - 3, layout < 20
    keep = np.where(fixed & (decpt > 0), np.maximum(nd, decpt + 1), nd)
    dot = np.where(fixed, decpt - 1, np.where(nd > 1, 0, -1))
    zeros = np.where(fixed & (decpt <= 0), 2 - decpt, 0)
    body = np.full((2, 21, 17, _WIDTH), _DROP, np.uint8)
    body[1, ..., 0] = ord("-")
    body[..., 1:6] = np.where(np.arange(5) < zeros, np.frombuffer(b"0.000", np.uint8), _DROP)
    body[..., 6:40:2] = np.where(j < keep, 0, _DROP)
    body[..., 7:40:2] = np.where(j == dot, ord("."), _DROP)
    body[..., 40:45] = 0  # the suffix word's
    return (hi, lo, big, hi - big), words.view(np.uint64)[:, 0], trailing, body.reshape(-1, _WIDTH)


def _repr_texts(x: np.ndarray, term: np.ndarray, cuts) -> tuple:
    """(texts, slow): the texts ``float.__repr__(x[i])`` of the finite
    float64 vector ``x``, each followed by the character ``term[i]``, as one
    ASCII bytes object for each piece ``x[a:b]`` between consecutive
    ``cuts``, the first 0 and the last ``x.size``, each laid out on its own
    canvas whose _DROP bytes one ``translate`` deletes; and the mask of the
    entries that float.__repr__ wrote itself.  The digits are found for all
    of ``x`` at once."""
    powers, words, trailing, body = _repr_tables()
    m = np.abs(x)
    zero = x == 0.0
    slow = (m < _LOW) | (m >= _HIGH)
    m = np.where(slow, 1.0, m)  # a stand-in: a zero is written "0.0", the rest below
    slow ^= zero
    mant, e2 = np.frexp(m)  # m = mant 2^e2, mant in [0.5, 1)
    e = np.floor((e2 - 1) * math.log10(2.0)).astype(np.intp)  # 10^e <= m < 2 10^(e+1)
    k = (16 - _KMIN) - e
    h, l, hb, hs = (column.take(k) for column in powers)
    # y = m 10^(16-e) = p + f: p = fl(m h), an integer, and f the rest
    c = m * _SPLIT
    mb = c - (c - m)
    ms = m - mb
    p = m * h
    f = (((mb * hb - p) + mb * hs + ms * hb) + ms * hs) + m * l
    # the reals that round to x: within half an ulp (m / mant 2^-54) of it,
    # a quarter below a power of 2
    gap = (m / mant) * 2.0**-54
    gap = gap * h + gap * l
    up = f + gap
    down = f - np.where(mant == 0.5, 0.5, 1.0) * gap
    top, bottom = np.floor(up), np.ceil(down)  # the integers p + [bottom, top] round to x
    slow |= (np.abs(up - top - 0.5) > 0.5 - _MARGIN) | (np.abs(bottom - down - 0.5) > 0.5 - _MARGIN)
    base = p.astype(np.int64)
    # the last two digits of p + top: whether a multiple of 100, then the
    # only one, or of 10 is within reach
    last = (base - base // 100 * 100).astype(float)
    t = last + top
    t -= 100.0 * np.floor(t / 100.0)
    span = top - bottom
    hundred = t <= span
    ten = t - 10.0 * np.floor(t / 10.0) <= span
    # the digits' offset from p: round(y), the multiple of 10 nearest to y
    # moved into the interval, or the multiple of 100
    step = np.where(ten, 10.0, 1.0)
    last = np.where(ten, last, 0.0)
    z = (f + last) / step
    offset = np.round(z)
    slow |= (np.abs(np.abs(z - offset) - 0.5) < _MARGIN) & ~hundred  # a tie
    offset = offset * step - last
    offset -= 10.0 * (offset > top)  # round(y) itself is within the interval
    offset += 10.0 * (offset < bottom)
    digits = base + np.where(hundred, top - t, offset).astype(np.int64)
    wide = digits >= 10**17  # 18 digits, the last a zero
    digits = np.where(wide, digits // 10, digits)
    decpt = e + 1 + wide
    fixed = (decpt > -4) & (decpt <= 16)
    # the canvas words' indices: the leading digit, four groups of four, the suffix
    lead = digits // 10**16
    rest = digits - lead * 10**16
    index = [np.where(zero, 10000, lead + 10000)]
    for g in (12, 8, 4):
        index.append(rest // 10**g)
        rest -= index[-1] * 10**g
    index += [rest, np.where(fixed, 10810, decpt + 10409)]
    # the digits up to the last nonzero one: a zero's is the first
    nd = 17 - trailing.take(rest)
    more = np.flatnonzero(rest == 0)
    if more.size:
        nd[more] = np.select([index[g][more] != 0 for g in (3, 2, 1)],
                             [4 * g + 1 - trailing.take(index[g][more]) for g in (3, 2, 1)], 1)
    key = (np.signbit(x) * 21 + np.where(fixed, decpt + 3, 20)) * 17 + nd - 1
    texts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        canvas = body.take(key[a:b], axis=0)
        for g, column in enumerate(index):
            canvas.view(np.uint64)[:, g] |= words.take(column[a:b])
        canvas[:, -1] = term[a:b]
        where = np.flatnonzero(slow[a:b])
        if where.size:
            text = "".join(r.ljust(_WIDTH - 1, "\xff")
                           for r in map(float.__repr__, x[a:b][where].tolist()))
            canvas[where, :-1] = np.frombuffer(text.encode("latin-1"),
                                               np.uint8).reshape(-1, _WIDTH - 1)
        texts.append(canvas.tobytes().translate(None, b"\xff"))
    return texts, slow


def _matrix_texts(stacks: list, sep: str) -> list:
    """For each (n, d, d) finite float64 stack of ``stacks``, the texts of
    its matrices: each one's row-major entries as float.__repr__ writes
    them, joined by ``sep``.  Stacks of fewer than _REPR_MIN_ENTRIES entries
    in all join float.__repr__ matrix by matrix; the rest are written by
    :func:`_repr_texts`, all stacks together, on canvases of whole
    matrices of at most _REPR_CHUNK entries (or one matrix)."""
    flats = [s.reshape(len(s), -1) for s in stacks]
    if sum(f.size for f in flats) < _REPR_MIN_ENTRIES:
        return [[sep.join(map(float.__repr__, row)) for row in f.tolist()] for f in flats]
    x = np.concatenate([f.reshape(-1) for f in flats])
    ends = np.cumsum(np.repeat([f.shape[1] for f in flats], [len(f) for f in flats]))
    term = np.full(x.size, ord(","), np.uint8)
    term[ends - 1] = ord(";")
    cuts = [0]
    while cuts[-1] < x.size:  # the last matrix end within a chunk, or the next one
        cuts.append(int(ends[max(np.searchsorted(ends, cuts[-1] + _REPR_CHUNK, "right") - 1,
                                 np.searchsorted(ends, cuts[-1], "right"))]))
    texts, sep = [], sep.encode()
    for text in _repr_texts(x, term, cuts)[0]:
        texts += text.replace(b",", sep).decode().split(";")
        texts.pop()  # the empty text after the last terminator
    starts = np.cumsum([0] + [len(f) for f in flats]).tolist()
    return [texts[a:b] for a, b in zip(starts[:-1], starts[1:])]
