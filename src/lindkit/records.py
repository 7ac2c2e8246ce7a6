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
once, each matrix as its row is filled in.
"""
from __future__ import annotations

import contextlib
import functools
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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
    square matrices, which gives each row the row-major list of its matrix.
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
    and each matrix of a matrix column by :func:`_matrix_texts` as its row
    is filled in.  A matrix column that is not a stack of square float64
    matrices raises TypeError, and one with a NaN or infinity ``json``'s
    ValueError."""
    field = inner + "  "
    # gaps[k] is the text before the cell of key k, close the text after
    # the last cell of a row, before its closing brace
    gaps, cells, close, n = [], [], "", 0
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
            cells.append(_matrix_texts(column, "," + field + "  "))
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


@functools.cache
def _triangles(d: int):
    """Index maps of a d x d matrix, built once per d: the rows and columns
    of its strict upper triangle, row by row, then of its diagonal, as
    read-only arrays, and the getters that place texts in that order in
    row-major order, mirrored below the diagonal as they are, and mirrored
    negated from the texts of the strict triangle's negatives appended."""
    strict_rows, strict_cols = np.triu_indices(d, 1)
    rows, cols = np.r_[strict_rows, :d], np.r_[strict_cols, :d]
    rows.flags.writeable = cols.flags.writeable = False
    upper = np.zeros((d, d), dtype=int)
    upper[rows, cols] = np.arange(rows.size)
    below = np.tri(d, k=-1, dtype=bool)
    places = [np.where(below, shift + upper.T, upper).reshape(-1).tolist()
              for shift in (0, rows.size)]
    # itemgetter of one item returns that item, not a tuple of it
    return rows, cols, *(itemgetter(*p) if d > 1 else itemgetter(slice(1)) for p in places)


def _mirror_signs(a: np.ndarray) -> list:
    """For each matrix of the (n, d, d) float stack ``a``: 1 if every entry
    below its diagonal has the bits of its mirror above it, else -1 if the
    bits of that mirror negated (as a Hermitian matrix's imaginary part
    has), else 0.  Bits, not values: 0.0 == -0.0, but their texts differ."""
    d = a.shape[1]
    rows, cols = (index[:-d] for index in _triangles(d)[:2])  # the strict triangle
    bits = a.view(np.int64)
    flips = bits[:, rows, cols] ^ bits[:, cols, rows]
    same, negated = (~flips.any(axis=1)).tolist(), (flips == -2**63).all(axis=1).tolist()
    return [1 if s else -1 if n else 0 for s, n in zip(same, negated)]


def _matrix_texts(a: np.ndarray, sep: str):
    """The row-major entries of each matrix of the (n, d, d) finite float
    stack ``a``, their texts joined by ``sep``, made as each is asked for;
    a matrix with a mirror sign (:func:`_mirror_signs`) formats only its
    upper triangle and diagonal."""
    d = a.shape[1]
    rows, cols, place, place_negated = _triangles(d)
    for k, (sign, upper) in enumerate(zip(_mirror_signs(a), a[:, rows, cols].tolist())):
        if sign == 0:
            yield sep.join(map(float.__repr__, a[k].reshape(-1).tolist()))
            continue
        texts = list(map(float.__repr__, upper))
        if sign < 0:  # the text of -x: float.__repr__ writes the sign, then |x|
            texts += [t[1:] if t[0] == "-" else "-" + t for t in texts[:-d]]
        yield sep.join((place if sign > 0 else place_negated)(texts))
