"""Pauli matrices and the three-qubit Pauli product basis.

Conventions used throughout the package:

* qubit A is the most significant bit of the 8-dimensional index,
  qubit C the least significant;
* Pauli axes are indexed 1..3 = (x, y, z) in the mathematics, 0..2 in
  array slots;
* ``|0>`` is the +z eigenstate.
"""

from __future__ import annotations

import numpy as np

identity2 = np.eye(2, dtype=complex)
pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)

#: The three Pauli matrices, index 0..2 = x, y, z.
paulis = (pauli_x, pauli_y, pauli_z)

#: Identity first, then x, y, z; the index set of the product basis.
sigma = (identity2, pauli_x, pauli_y, pauli_z)


def _build_product_basis() -> np.ndarray:
    s = np.stack(sigma)  # every sigma_m (x) sigma_n (x) sigma_x at once, A slot most significant
    basis = np.multiply.outer(np.multiply.outer(s, s), s).transpose(0, 3, 6, 1, 4, 7, 2, 5, 8).reshape(4, 4, 4, 8, 8)
    basis.setflags(write=False)
    return basis


#: product_basis[m, n, x] = sigma_m (x) sigma_n (x) sigma_x on (A, B, C),
#: with index 0 = identity.  64 matrices, orthogonal under the
#: Hilbert-Schmidt inner product with norm^2 = 8.
product_basis = _build_product_basis()
