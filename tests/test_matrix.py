"""The Matrix container: construction, element access, caches."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import graphblas as grb
from repro.graphblas.matrix import Matrix
from repro.util.errors import DimensionMismatch, InvalidValue


def small():
    return Matrix.from_dense([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])


class TestConstruction:
    def test_from_dense_pattern(self):
        A = small()
        assert A.shape == (3, 3) and A.nvals == 5

    def test_from_coo(self):
        A = Matrix.from_coo([0, 1], [1, 0], [2.0, 3.0], 2, 2)
        assert A.extract_element(0, 1) == 2.0
        assert A.extract_element(1, 0) == 3.0
        assert A.extract_element(0, 0) is None

    def test_from_coo_duplicates_plus(self):
        A = Matrix.from_coo([0, 0], [0, 0], [1.0, 2.0], 1, 1,
                            dup_op=grb.ops.plus)
        assert A.extract_element(0, 0) == 3.0

    def test_from_coo_duplicates_max(self):
        A = Matrix.from_coo([0, 0, 0], [0, 0, 0], [5.0, 9.0, 2.0], 1, 1,
                            dup_op=grb.ops.max_)
        assert A.extract_element(0, 0) == 9.0

    def test_from_coo_duplicates_no_op_raises(self):
        with pytest.raises(InvalidValue):
            Matrix.from_coo([0, 0], [0, 0], [1.0, 2.0], 1, 1)

    def test_from_coo_one_duplicate_among_many_raises(self):
        """The duplicate check sees a single repeated coordinate in an
        otherwise duplicate-free stencil-sized input."""
        n = 200
        rows = np.repeat(np.arange(n), 3)
        cols = (rows + np.tile([0, 1, 2], n)) % n
        rows, cols = np.append(rows, 57), np.append(cols, cols[57 * 3])
        with pytest.raises(InvalidValue, match="duplicate"):
            Matrix.from_coo(rows, cols, np.ones(rows.size), n, n)

    def test_from_coo_non_plus_dup_op_is_segmented(self):
        """A non-plus dup_op combines each duplicate group with the op
        (not with scipy's summation) and leaves singletons alone."""
        rows = [0, 1, 0, 2, 0, 1]
        cols = [0, 1, 0, 2, 0, 1]
        vals = [5.0, 4.0, 9.0, 7.0, 2.0, -1.0]
        A = Matrix.from_coo(rows, cols, vals, 3, 3, dup_op=grb.ops.min_)
        assert A.nvals == 3
        np.testing.assert_array_equal(
            A.to_scipy().toarray(), np.diag([2.0, -1.0, 7.0]))

    def test_from_coo_explicit_zeros_survive(self):
        # a stored zero, and a plus-combined duplicate pair summing to 0
        A = Matrix.from_coo([0, 1, 1, 2], [0, 1, 1, 0],
                            [0.0, 3.0, -3.0, 1.0], 3, 3,
                            dup_op=grb.ops.plus)
        assert A.nvals == 3
        assert A.extract_element(0, 0) == 0.0
        assert A.extract_element(1, 1) == 0.0
        assert A.extract_element(2, 0) == 1.0
        B = Matrix.from_coo([0, 2], [2, 2], [0.0, 0.0], 3, 3)
        assert B.nvals == 2

    def test_from_coo_out_of_range(self):
        with pytest.raises(InvalidValue):
            Matrix.from_coo([2], [0], [1.0], 2, 2)

    def test_from_coo_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix.from_coo([0, 1], [0], [1.0], 2, 2)

    def test_from_scipy_copies(self):
        src = sp.identity(3, format="csr")
        A = Matrix.from_scipy(src)
        src.data[:] = 99.0
        assert A.extract_element(0, 0) == 1.0

    def test_identity(self):
        eye = Matrix.identity(4)
        assert eye.nvals == 4
        assert all(eye.extract_element(i, i) == 1.0 for i in range(4))

    def test_from_dense_rejects_1d(self):
        with pytest.raises(InvalidValue):
            Matrix.from_dense([1.0, 2.0])

    def test_rectangular(self):
        A = Matrix.from_coo([0, 1], [3, 2], [1.0, 1.0], 2, 5)
        assert A.nrows == 2 and A.ncols == 5


class TestElementAccess:
    def test_extract_absent(self):
        assert small().extract_element(0, 1) is None

    def test_extract_out_of_range(self):
        with pytest.raises(InvalidValue):
            small().extract_element(3, 0)

    def test_set_existing(self):
        A = small()
        A.set_element(0, 0, 9.0)
        assert A.extract_element(0, 0) == 9.0

    def test_set_new_entry(self):
        A = small()
        before = A.nvals
        A.set_element(1, 2, 6.0)
        assert A.extract_element(1, 2) == 6.0
        assert A.nvals == before + 1

    def test_set_out_of_range(self):
        with pytest.raises(InvalidValue):
            small().set_element(0, 9, 1.0)


class TestWholeContainer:
    def test_dup_independent(self):
        A = small()
        B = A.dup()
        B.set_element(0, 0, -1.0)
        assert A.extract_element(0, 0) == 2.0

    def test_transpose(self):
        A = small()
        T = A.transpose()
        assert T.extract_element(0, 2) == 4.0
        assert T.extract_element(2, 0) == 1.0

    def test_diag_values(self):
        d = small().diag()
        np.testing.assert_array_equal(d.to_dense(), [2.0, 3.0, 5.0])

    def test_diag_absent_entries(self):
        A = Matrix.from_coo([0, 1], [1, 0], [1.0, 1.0], 2, 2)
        d = A.diag()
        assert d.nvals == 0

    def test_diag_stored_zero_is_present(self):
        A = Matrix.from_coo([0], [0], [0.0], 2, 2)
        d = A.diag()
        assert d.extract_element(0) == 0.0  # stored zero is an entry
        assert d.extract_element(1) is None

    def test_diag_presence_matches_pattern(self):
        """Stored zeros on the diagonal are present; rows with entries
        on both sides of (i, i) but not on it, and empty rows, are
        absent."""
        dense = np.array([[0.0, 1.0, 0.0, 0.0],
                          [2.0, 0.0, 3.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 4.0, 5.0]])
        rows, cols = np.nonzero(dense)
        A = Matrix.from_coo(np.append(rows, 0), np.append(cols, 0),
                            np.append(dense[rows, cols], 0.0), 4, 4)
        d = A.diag()
        np.testing.assert_array_equal(d._present, [True, False, False, True])
        assert d.extract_element(0) == 0.0
        assert d.extract_element(3) == 5.0

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_diag_rectangular(self, shape):
        """Length min(nrows, ncols); entries past the square part (extra
        rows, or extra columns) never count as diagonal."""
        nrows, ncols = shape
        rows = [0, 0, 1, 2, nrows - 1, 1]
        cols = [0, ncols - 1, 0, 2, 1, 2]
        A = Matrix.from_coo(rows, cols, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                            nrows, ncols)
        d = A.diag()
        assert d.size == 3
        np.testing.assert_array_equal(d._present, [True, False, True])
        assert d.extract_element(0) == 1.0 and d.extract_element(2) == 4.0

    def test_to_coo_roundtrip(self):
        A = small()
        r, c, v = A.to_coo()
        B = Matrix.from_coo(r, c, v, 3, 3)
        assert (A.to_scipy() != B.to_scipy()).nnz == 0

    def test_to_scipy_copy_isolation(self):
        A = small()
        out = A.to_scipy()
        out.data[:] = 0.0
        assert A.extract_element(0, 0) == 2.0


class TestBackendCaches:
    def test_transposed_cached(self):
        A = small()
        t1 = A._transposed_csr()
        t2 = A._transposed_csr()
        assert t1 is t2

    def test_set_element_invalidates(self):
        A = small()
        t1 = A._transposed_csr()
        A.set_element(0, 0, 42.0)
        t2 = A._transposed_csr()
        assert t1 is not t2
        assert t2[0, 0] == 42.0

    def test_mask_cache_hit(self):
        A = small()
        rows = np.array([0, 2])
        s1 = A._rows_submatrix((1, 0), rows)
        s2 = A._rows_submatrix((1, 0), rows)
        assert s1 is s2

    def test_mask_cache_respects_version_key(self):
        A = small()
        rows = np.array([0, 2])
        s1 = A._rows_submatrix((1, 0), rows)
        s2 = A._rows_submatrix((1, 1), rows)  # same mask id, new version
        assert s1 is not s2

    def test_mask_cache_transpose_separate(self):
        A = small()
        rows = np.array([0])
        plain = A._rows_submatrix((1, 0), rows, transpose=False)
        transposed = A._rows_submatrix((1, 0), rows, transpose=True)
        assert plain.shape == transposed.shape == (1, 3)
        assert (plain != transposed).nnz > 0  # different content for small()

    def test_version_bumps_on_mutation(self):
        A = small()
        v0 = A.version
        A.set_element(0, 0, 1.5)
        assert A.version > v0
