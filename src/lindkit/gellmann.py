"""Coordinates in the orthonormal Hermitian basis G_0 = I / sqrt(d) and the
generalized Gell-Mann matrices (Bertlmann & Krammer 2008, J. Phys. A
41:235303): (|j><k| + |k><j|) / sqrt(2) for each pair j < k, then
(-i |j><k| + i |k><j|) / sqrt(2) for each pair, then (|0><0| + ... +
|l-1><l-1| - l |l><l|) / sqrt(l (l + 1)) for l = 1 .. d - 1.  V, the unitary
of the columns vec(G_a), is never formed: a pair reads the entries (j, k)
and (k, j), and the diagonal is one d x d orthogonal transform, so a map
costs O(d^2) per column and a two-sided product O(d^4).
"""
from __future__ import annotations

import functools
import math

import numpy as np

_C = 1 / np.sqrt(2)


@functools.cache
def _layout(d: int):
    """(pairs, slots, coords, block, p), read-only, once per d: the vec slots
    of the p entries (j, k) and of their mirrors, each slot's row in the
    stack of :func:`from_coords`, the coordinates that reach the diagonal,
    and the block of V that maps them there."""
    j, k = np.triu_indices(d, 1)
    p = len(j)
    pairs = np.concatenate([j * d + k, k * d + j])
    slots = np.empty(d * d, dtype=np.intp)
    slots[pairs[p:]], slots[pairs[:p]] = np.arange(p), np.arange(p, 2 * p)
    slots[::d + 1] = np.arange(2 * p, d * d)
    l, i = np.arange(1, d)[:, None], np.arange(d)
    block = np.empty((d, d))
    block[:, 0] = 1 / np.sqrt(d)
    block[:, 1:] = (((i < l) - l * (i == l)) / np.sqrt(l * (l + 1))).T
    arrays = (pairs, slots, np.array([0, *range(1 + 2 * p, d * d)]), block)
    for array in arrays:
        array.flags.writeable = False
    return (*arrays, p)


def to_coords(x: np.ndarray) -> np.ndarray:
    """V^dag x along axis 0 (d^2 rows): the complex coordinates Tr(G_a X)."""
    d = math.isqrt(len(x))
    pairs, _, _, block, p = _layout(d)
    out = np.empty(x.shape, dtype=complex)
    entries = x.take(pairs, axis=0)
    sym, anti = out[1:1 + p], out[1 + p:1 + 2 * p]
    np.add(entries[:p], entries[p:], out=sym)
    np.subtract(entries[:p], entries[p:], out=anti)
    sym *= _C
    anti *= 1j * _C
    diagonal = block.T @ x[::d + 1]
    out[0], out[1 + 2 * p:] = diagonal[0], diagonal[1:]
    return out


def from_coords(c: np.ndarray) -> np.ndarray:
    """V c along axis 0 (d^2 rows): vec(sum_a c_a G_a), complex.  Real
    coordinates give exactly Hermitian matrices: each entry (j, k) is the
    conjugate of its mirror bit for bit, and the diagonal is real."""
    _, slots, coords, block, p = _layout(math.isqrt(len(c)))
    stack = np.empty(c.shape, dtype=complex)
    mirror, entry = stack[:p], stack[p:2 * p]
    if np.iscomplexobj(c):
        sym, anti = c[1:1 + p] * _C, c[1 + p:1 + 2 * p] * (1j * _C)
        np.add(sym, anti, out=mirror)
        np.subtract(sym, anti, out=entry)
    else:
        np.multiply(c[1:1 + p], _C, out=mirror.real)
        np.multiply(c[1 + p:1 + 2 * p], _C, out=mirror.imag)
        np.conjugate(mirror, out=entry)
    np.matmul(block, c.take(coords, axis=0), out=stack[2 * p:])
    return stack.take(slots, axis=0)


def both_axes(f, a: np.ndarray) -> np.ndarray:
    """The map ``f`` on both axes of a d^2 x d^2 matrix, (f (f a)^dag)^dag:
    V^dag a V for :func:`to_coords`, V a V^dag for :func:`from_coords`."""
    z = f(np.conjugate(f(a).T, order="C"))
    return np.conjugate(z, out=z).T
