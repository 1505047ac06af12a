import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync.model import assemble_instance, random_signal, sample_wigner
from phasesync.serialize import (read_instance, read_phase_vector, write_instance,
                                 write_phase_vector)


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


class TestMatrixRoundTrip:
    """The W and C matrix blocks of an instance file."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_bit_exact(self, tmp_path_factory, seed):
        path = tmp_path_factory.mktemp("mat") / "inst.txt"
        inst = _instance(7, 1.3, seed)
        write_instance(inst, path)
        back = read_instance(path)
        assert np.array_equal(back.W.mat, inst.W.mat)
        assert np.array_equal(back.C.mat, inst.C.mat)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(_instance(4, 0.3, 0), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="ends early"):
            read_instance(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(_instance(3, 0.3, 1), path)
        with open(path, "a") as fh:
            fh.write("0.0 0.0\n")
        with pytest.raises(ValueError, match="trailing"):
            read_instance(path)

    def test_rejects_non_hermitian_content(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(_instance(2, 0.5, 2), path)
        lines = path.read_text().splitlines()
        w_row = lines.index("W") + 2
        row = lines[w_row].split()
        row[2] = "5.0"
        lines[w_row] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="Hermitian"):
            read_instance(path)


class TestPhaseVectorRoundTrip:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_bit_exact(self, tmp_path_factory, seed):
        path = tmp_path_factory.mktemp("vec") / "x.txt"
        z = random_signal(13, seed)
        write_phase_vector(z, path)
        back = read_phase_vector(path)
        assert np.array_equal(back.vec, z.vec)

    def test_rejects_off_modulus(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("2\n1.0 0.0 0.5 0.5\n")
        with pytest.raises(ValueError):
            read_phase_vector(path)


class TestInstanceRoundTrip:
    def test_bit_exact_fields(self, tmp_path):
        inst = _instance(9, 0.75, 42)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.n == inst.n
        assert back.sigma == inst.sigma
        assert back.seed == inst.seed
        assert np.array_equal(back.z.vec, inst.z.vec)
        assert np.array_equal(back.W.mat, inst.W.mat)
        assert np.array_equal(back.C.mat, inst.C.mat)

    def test_sigma_zero(self, tmp_path):
        inst = _instance(5, 0.0, 7)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.sigma == 0.0
        assert np.array_equal(back.C.mat, inst.C.mat)

    def test_tampered_diag_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 8)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        text = path.read_text()
        # C diagonal entries serialize as exactly 1; corrupt one of them.
        lines = text.splitlines()
        c_start = lines.index("C") + 2
        row = lines[c_start].split()
        row[0] = "1.5"
        lines[c_start] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_instance(path)

    def test_truncated_after_z_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 11)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        with pytest.raises(ValueError, match="'W' marker"):
            read_instance(path)

    def test_missing_section_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 9)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        cut = lines.index("C")
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValueError):
            read_instance(path)

    def test_non_finite_entries_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 12)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        poison_instance_file(path)
        with pytest.raises(ValueError, match="NaN or infinite"):
            read_instance(path)

    def test_inconsistent_noise_rejected(self, tmp_path):
        # Swap in a fresh W without updating C; the C = zz* + sigma W glue
        # check in the instance constructor has to notice.
        inst = _instance(4, 0.6, 10)
        other = sample_wigner(4, 999)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        text = path.read_text()
        w_block_old = _matrix_block(inst.W)
        w_block_new = _matrix_block(other)
        assert w_block_old in text
        path.write_text(text.replace(w_block_old, w_block_new))
        with pytest.raises(ValueError):
            read_instance(path)


def poison_instance_file(path):
    """Overwrite the (0, 1) and (1, 0) entries of W and of C in an instance
    file with NaN. The pairs stay symmetric and C still matches
    ``z z* + sigma W`` as far as NaN comparisons can tell."""
    lines = path.read_text().splitlines()
    for marker in ("W", "C"):
        top = lines.index(marker) + 2
        for row, col in ((0, 1), (1, 0)):
            toks = lines[top + row].split()
            toks[2 * col] = "nan"
            lines[top + row] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")


def _matrix_block(h):
    rows = []
    for row in h.mat:
        parts = []
        for entry in row:
            parts.append("%.17g" % entry.real)
            parts.append("%.17g" % entry.imag)
        rows.append(" ".join(parts))
    return "\n".join(rows)
