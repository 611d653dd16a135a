"""Reference eigenvalues computed apart from the program.

The stiffness and mass matrices are assembled here from the generated field
with bilinear elements written as tensor products of the 1-D element
matrices (nothing is imported from ``geig``), and their lowest eigenvalues
come from ``scipy.sparse.linalg.eigsh`` in shift-invert mode.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


def assemble(a):
    """Interior-node stiffness and mass of -div(a grad u) on [-1, 1]^2 with
    zero Dirichlet data, for a cellwise-constant a indexed [iy, ix]."""
    n = a.shape[0]
    h = 2.0 / n
    k1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m1 = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    # local index 2*dy + dx; kron(y-factor, x-factor)
    k_loc = np.kron(m1, k1) + np.kron(k1, m1)
    m_loc = np.kron(m1, m1)
    cy, cx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cy, cx = cy.ravel(), cx.ravel()
    coef = a[cy, cx]
    node = []
    for loc in range(4):
        gy = cy + loc // 2
        gx = cx + loc % 2
        inside = (gx > 0) & (gx < n) & (gy > 0) & (gy < n)
        node.append(np.where(inside, (gy - 1) * (n - 1) + (gx - 1), -1))
    rows, cols, kv, mv = [], [], [], []
    for p in range(4):
        for q in range(4):
            keep = (node[p] >= 0) & (node[q] >= 0)
            rows.append(node[p][keep])
            cols.append(node[q][keep])
            kv.append(coef[keep] * k_loc[p, q])
            mv.append(np.full(int(keep.sum()), m_loc[p, q]))
    N = (n - 1) ** 2
    ij = (np.concatenate(rows), np.concatenate(cols))
    K = scipy.sparse.csc_matrix((np.concatenate(kv), ij), shape=(N, N))
    M = scipy.sparse.csc_matrix((np.concatenate(mv), ij), shape=(N, N))
    return K, M


def lowest_eigenvalues(a, nev):
    """The nev smallest eigenvalues of K x = lambda M x, ascending."""
    K, M = assemble(a)
    v0 = np.ones(K.shape[0])
    vals = scipy.sparse.linalg.eigsh(K, k=nev, M=M, sigma=0.0, which="LM",
                                     v0=v0, return_eigenvectors=False)
    return np.sort(vals)
