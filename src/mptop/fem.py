"""Structured-grid bilinear-quad discretization, SIMP interpolation and filtering.

Conventions (fixed, relied on throughout):

* nodes are numbered along the grid's shorter side: column-major,
  ``node(r, c) = r + c * (nely + 1)``, when ``nely <= nelx``, and row-major,
  ``node(r, c) = c + r * (nelx + 1)``, on taller grids, with row ``r``
  counted from the top of the grid and column ``c`` from the left;
* elements are numbered column-major on every grid,
  ``elem(r, c) = r + c * nely``;
* elastic DOFs are interleaved, ``(2 * node, 2 * node + 1)`` for the
  horizontal and vertical components;
* elements are unit squares with unit conductivity / unit Young's modulus,
  Poisson ratio 0.3, unit thickness, full 2x2 Gauss integration.

This numbering makes the assembled bandwidth proportional to the grid's
shorter side, of order sqrt(n) for square grids, whatever its orientation;
the sparse factorization bands every matrix in this order.

Assembly is split like a sparse direct solver's work: the first
:func:`assemble` on a grid builds K's CSR pattern and the operator P from
element scales to K's values, from the symmetrized element matrix, and every
later one is the product ``P @ scales`` on that pattern (top99neo likewise
computes its assembly indices once).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .sparse import Pattern, SymmetricSparse

_GAUSS = 1.0 / np.sqrt(3.0)
RAW_CHUNK = 2048      # elements per pass of contract_dk_raw, to 8 columns
ELEMENT_CHUNK = 512   # elements per pass of the reduced-derivative contraction


def _quad_points(order: int):
    """Tensor-product Gauss points/weights on [-1, 1]^2."""
    if order == 2:
        g = [-_GAUSS, _GAUSS]
        w = [1.0, 1.0]
    elif order == 4:
        a = np.sqrt(3.0 / 7.0 - 2.0 / 7.0 * np.sqrt(6.0 / 5.0))
        b = np.sqrt(3.0 / 7.0 + 2.0 / 7.0 * np.sqrt(6.0 / 5.0))
        wa = (18.0 + np.sqrt(30.0)) / 36.0
        wb = (18.0 - np.sqrt(30.0)) / 36.0
        g = [-b, -a, a, b]
        w = [wb, wa, wa, wb]
    else:
        raise ValueError("unsupported quadrature order")
    pts = [(xi, eta, wi * wj) for xi, wi in zip(g, w) for eta, wj in zip(g, w)]
    return pts


def _shape_gradients(xi, eta):
    """Gradients of the four bilinear shape functions w.r.t. (xi, eta).

    Node order is counterclockwise starting at the lower-left corner.
    """
    dN_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    dN_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    return dN_dxi, dN_deta


def element_matrix(kind: str, order: int = 2) -> np.ndarray:
    """Reference element matrix on the unit square.

    Parameters
    ----------
    kind : 'conduction' or 'plane-stress'
        Scalar Laplacian (4x4) or plane-stress elasticity (8x8, nu = 0.3).
    order : quadrature order per direction (2 is exact for these integrands).
    """
    if kind == "conduction":
        ke = np.zeros((4, 4))
        for xi, eta, w in _quad_points(order):
            dNx, dNy = _shape_gradients(xi, eta)
            # unit square element: jacobian = I/2, det = 1/4
            grad = 2.0 * np.vstack([dNx, dNy])
            ke += w * 0.25 * (grad.T @ grad)
        return ke
    if kind == "plane-stress":
        nu = 0.3
        C = (1.0 / (1.0 - nu * nu)) * np.array(
            [[1.0, nu, 0.0],
             [nu, 1.0, 0.0],
             [0.0, 0.0, (1.0 - nu) / 2.0]]
        )
        ke = np.zeros((8, 8))
        for xi, eta, w in _quad_points(order):
            dNx, dNy = _shape_gradients(xi, eta)
            gx, gy = 2.0 * dNx, 2.0 * dNy
            B = np.zeros((3, 8))
            B[0, 0::2] = gx
            B[1, 1::2] = gy
            B[2, 0::2] = gy
            B[2, 1::2] = gx
            ke += w * 0.25 * (B.T @ C @ B)
        return ke
    raise ValueError(f"unknown element kind {kind!r}")


class Grid:
    """Structured nelx-by-nely grid of bilinear quadrilaterals."""

    def __init__(self, nelx: int, nely: int, physics: str = "conduction"):
        if nelx < 1 or nely < 1:
            raise ValueError("grid must have at least one element per direction")
        if physics not in ("conduction", "plane-stress"):
            raise ValueError(f"unknown physics {physics!r}")
        self.nelx = nelx
        self.nely = nely
        self.physics = physics
        self.dofs_per_node = 1 if physics == "conduction" else 2
        self.n_nodes = (nelx + 1) * (nely + 1)
        self.n_dofs = self.n_nodes * self.dofs_per_node
        self.n_elems = nelx * nely
        self.ke = element_matrix(
            "conduction" if physics == "conduction" else "plane-stress")
        self.edof = self._edof_table()

    def node(self, r, c):
        """Node number at row ``r``, column ``c`` (scalars or arrays)."""
        if self.nely <= self.nelx:
            return r + c * (self.nely + 1)
        return c + r * (self.nelx + 1)

    @cached_property
    def _assembly(self):
        """``(pattern, P)``: K's CSR pattern and the operator with
        ``K.data = P @ scales``. Entry (i, j) of element e sits in P's row of
        K's slot (edof[e, i], edof[e, j]) and column e, with the value of the
        symmetrized element matrix, so K is exactly symmetric and each slot
        sums its elements in ascending order."""
        k = self.edof.shape[1]
        n = self.n_dofs
        keys = (np.repeat(self.edof, k, axis=1) * n
                + np.tile(self.edof, (1, k))).ravel()
        keys, slot = np.unique(keys, return_inverse=True)
        pattern = Pattern(np.searchsorted(keys, np.arange(n + 1) * n),
                          keys % n, (n, n))
        ke = 0.5 * (self.ke + self.ke.T)
        P = sp.csr_matrix(
            (np.tile(ke.ravel(), self.n_elems),
             (slot, np.repeat(np.arange(self.n_elems), k * k))),
            shape=(len(keys), self.n_elems))
        return pattern, P

    def _edof_table(self) -> np.ndarray:
        ec, er = np.divmod(np.arange(self.n_elems), self.nely)
        # corner nodes counterclockwise from the lower-left (rows grow downward)
        nodes = np.column_stack([self.node(er + 1, ec),
                                 self.node(er + 1, ec + 1),
                                 self.node(er, ec + 1), self.node(er, ec)])
        if self.dofs_per_node == 1:
            return nodes.astype(np.int64)
        edof = np.empty((self.n_elems, 8), dtype=np.int64)
        edof[:, 0::2] = 2 * nodes
        edof[:, 1::2] = 2 * nodes + 1
        return edof


class Filter:
    """Linear-hat density filter on element centers, weights renormalized at edges.

    Weights are w_ej = max(0, r - dist(e, j)) with center-to-center distance in
    element units; each row of the weight matrix sums to one. A radius at or
    below one element spacing degenerates to the identity.
    """

    def __init__(self, grid: Grid, radius: float = 2.0):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = radius
        self.grid = grid
        if radius <= 0:
            self.w = sp.identity(grid.n_elems, format="csr")
            return
        nelx, nely = grid.nelx, grid.nely
        reach = int(np.ceil(radius)) - 1
        rows, cols, vals = [], [], []
        eid = np.arange(grid.n_elems)
        er = eid % nely
        ec = eid // nely
        for dr in range(-reach, reach + 1):
            for dc in range(-reach, reach + 1):
                wgt = radius - np.hypot(dr, dc)
                if wgt <= 0:
                    continue
                jr, jc = er + dr, ec + dc
                ok = (jr >= 0) & (jr < nely) & (jc >= 0) & (jc < nelx)
                rows.append(eid[ok])
                cols.append(jr[ok] + jc[ok] * nely)
                vals.append(np.full(ok.sum(), wgt))
        w = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(grid.n_elems, grid.n_elems),
        ).tocsr()
        rowsum = np.asarray(w.sum(axis=1)).ravel()
        self.w = sp.diags(1.0 / rowsum) @ w

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.w @ x

    def chain(self, dg_dxf: np.ndarray) -> np.ndarray:
        """Pull a gradient w.r.t. the filtered field back to the design variables."""
        return self.w.T @ dg_dxf


def simp(xf, penal: float = 3.0, emin: float = 1e-9):
    """Modified power-law stiffness interpolation with floor ``emin``."""
    return emin + np.asarray(xf) ** penal * (1.0 - emin)


def simp_derivative(xf, penal: float = 3.0, emin: float = 1e-9):
    return penal * np.asarray(xf) ** (penal - 1.0) * (1.0 - emin)


class DesignField:
    """Design variables with their filtered field and SIMP scaling."""

    def __init__(self, grid: Grid, x: np.ndarray, flt: Filter,
                 penal: float = 3.0, emin: float = 1e-9):
        x = np.asarray(x, dtype=float)
        if x.shape != (grid.n_elems,):
            raise ValueError(f"x must have shape ({grid.n_elems},)")
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"x[{bad[0]}] = {x[bad[0]]} is not finite")
        self.grid = grid
        self.x = x
        self.flt = flt
        self.penal = penal
        self.emin = emin
        self.filtered = flt.apply(x)
        self.scales = simp(self.filtered, penal, emin)
        self.dscales = simp_derivative(self.filtered, penal, emin)


def assemble(grid: Grid, design: DesignField) -> SymmetricSparse:
    """Global system matrix: SIMP-scaled sum of scattered element matrices,
    on the grid's fixed pattern."""
    pattern, P = grid._assembly
    return SymmetricSparse.trusted(pattern, P @ design.scales)


def contract_dk_raw(grid: Grid, design: DesignField, left, right) -> np.ndarray:
    """Per-element contraction left^T (dK/d x-filtered_e) right, summed over columns.

    ``left`` and ``right`` are full-length vectors or matrices with matching
    column counts; when they are one object (a self-adjoint response), its
    element gathers are made once. Returns the gradient w.r.t. the *filtered*
    field; callers chain through the filter to reach the design variables.
    The gathers take all columns at once, :data:`RAW_CHUNK` elements at a
    time up to 8 columns and RAW_CHUNK · 8 / q at q > 8 (no more bytes).
    It serves both pipelines, the condensed one in the per-row order of
    :func:`mptop.sensitivity._contract_reduced`. A self-adjoint
    contraction forms each element's Gram ``L_e L_e^T`` and reads it against
    ``k_e``; otherwise one einsum contraction order serves the whole call.
    """
    L = np.asarray(left, dtype=float)
    if L.ndim == 1:
        L = L[:, None]
    R = L if right is left else np.asarray(right, dtype=float)
    if R.ndim == 1:
        R = R[:, None]
    if L.shape != R.shape or L.shape[0] != grid.n_dofs:
        raise ValueError("left/right must be n x q with matching shapes")
    out = np.empty(grid.n_elems)
    path = None
    chunk = RAW_CHUNK * 8 // max(L.shape[1], 8)
    for e0 in range(0, grid.n_elems, chunk):
        dofs = grid.edof[e0:e0 + chunk]
        Le = L[dofs]                                     # (chunk, k, q)
        if R is L:
            gram = Le @ Le.transpose(0, 2, 1)
            part = gram.reshape(len(dofs), -1) @ grid.ke.reshape(-1)
        else:
            Re = R[dofs]
            if path is None:
                path = np.einsum_path("ekq,kl,elq->e", Le, grid.ke, Re,
                                      optimize=True)[0]
            part = np.einsum("ekq,kl,elq->e", Le, grid.ke, Re, optimize=path)
        out[e0:e0 + len(dofs)] = part
    return design.dscales * out
