"""A from-scratch GraphBLAS implementation (the paper's ALP/GraphBLAS role).

The public surface follows the GraphBLAS C specification shaped by
ALP/GraphBLAS conventions: opaque :class:`Vector`/:class:`Matrix`
containers, algebraic :class:`BinaryOp`/:class:`Monoid`/:class:`Semiring`
objects, :class:`Descriptor` execution modifiers, and free-function
operations (:func:`mxv`, :func:`ewise_lambda`, ...).

>>> from repro import graphblas as grb
>>> A = grb.Matrix.from_dense([[2.0, 0.0], [1.0, 3.0]])
>>> x = grb.Vector.from_dense([1.0, 1.0])
>>> y = grb.Vector.dense(2)
>>> _ = grb.mxv(y, None, A, x)
>>> y.to_dense().tolist()
[2.0, 4.0]
"""

from repro.graphblas import descriptor as descriptors
from repro.graphblas import types
from repro.graphblas.descriptor import Descriptor
from repro.graphblas.matrix import Matrix
from repro.graphblas.monoid import (
    Monoid,
    land_monoid,
    lor_monoid,
    lxor_monoid,
    max_monoid,
    min_monoid,
    plus_monoid,
    times_monoid,
)
from repro.graphblas.operations import (
    apply,
    apply_bind_first,
    apply_bind_second,
    assign,
    diag,
    dot,
    ewise_add,
    ewise_lambda,
    ewise_mult,
    extract,
    mxm,
    mxv,
    norm2,
    reduce,
    reduce_matrix,
    vxm,
    waxpby,
)
from repro.graphblas.ops import BinaryOp, UnaryOp, lookup
from repro.graphblas import ops
from repro.graphblas.semiring import (
    Semiring,
    lor_land,
    max_first,
    max_plus,
    max_second,
    max_times,
    min_first,
    min_plus,
    min_second,
    min_times,
    plus_first,
    plus_second,
    plus_times,
)
from repro.graphblas import algorithms
from repro.graphblas import substrate
from repro.graphblas.vector import Vector
from repro.graphblas import backend
from repro.graphblas import io
from repro.graphblas import select as selectops
from repro.graphblas.select import IndexUnaryOp, select, select_vector
from repro.graphblas.matrix_ops import (
    apply_matrix,
    assign_submatrix,
    ewise_add_matrix,
    ewise_mult_matrix,
    extract_submatrix,
    kronecker,
    reduce_cols,
    reduce_rows,
    transpose_into,
)

__all__ = [
    "Vector",
    "Matrix",
    "BinaryOp",
    "UnaryOp",
    "Monoid",
    "Semiring",
    "Descriptor",
    "descriptors",
    "types",
    "ops",
    "backend",
    "io",
    "lookup",
    # monoids
    "plus_monoid",
    "times_monoid",
    "min_monoid",
    "max_monoid",
    "lor_monoid",
    "land_monoid",
    "lxor_monoid",
    # semirings
    "plus_times",
    "plus_first",
    "plus_second",
    "min_plus",
    "max_plus",
    "max_times",
    "min_times",
    "min_first",
    "min_second",
    "max_first",
    "max_second",
    "lor_land",
    "algorithms",
    "substrate",
    # operations
    "mxv",
    "vxm",
    "mxm",
    "ewise_add",
    "ewise_mult",
    "apply",
    "apply_bind_first",
    "apply_bind_second",
    "assign",
    "extract",
    "reduce",
    "reduce_matrix",
    "dot",
    "norm2",
    "waxpby",
    "ewise_lambda",
    "diag",
    # select / index-unary
    "IndexUnaryOp",
    "select",
    "select_vector",
    "selectops",
    # matrix-level operations
    "ewise_add_matrix",
    "ewise_mult_matrix",
    "apply_matrix",
    "transpose_into",
    "reduce_rows",
    "reduce_cols",
    "extract_submatrix",
    "assign_submatrix",
    "kronecker",
]
