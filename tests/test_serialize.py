import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync.hermitian import HermitianMatrix
from phasesync.model import (PhaseVector, SyncInstance, assemble_instance, random_signal,
                             sample_wigner)
from phasesync.serialize import (INSTANCE_MARKER, _fmt_row, _parse_complex_row, read_instance,
                                 read_phase_vector, write_instance, write_phase_vector)


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


class TestRowFormat:
    # The file format: 17 significant digits of the real part, then of the
    # imaginary part, of every entry, signed zeros kept.
    @pytest.mark.parametrize("row", [
        np.array([1.0, -0.0, 0.1, -2.5e-300, 1e300, 5e-324]),
        np.array([1 + 0j, complex(-0.0, -0.0), complex(0.1, -0.0), complex(-1e-17, 3.3)]),
    ], ids=["real", "complex"])
    def test_matches_entrywise_format(self, row):
        want = " ".join(f"{part:.17g}" for v in row for part in (v.real, v.imag))
        assert _fmt_row(row) == want

    def test_parser_round_trips_every_bit(self):
        row = np.array([complex(5e-324, -0.0), complex(-0.0, 1e300), complex(0.1, -2.5e-300)])
        back = _parse_complex_row(_fmt_row(row), "row")
        assert back.tobytes() == row.tobytes()

    def test_real_phase_vector_file(self, tmp_path):
        path = tmp_path / "x.txt"
        write_phase_vector(PhaseVector(np.array([1.0, -1.0, -1.0])), path)
        assert path.read_text() == "3\n1 0 -1 0 -1 0\n"
        assert np.array_equal(read_phase_vector(path).vec, [1.0, -1.0, -1.0])


class TestMatrixRoundTrip:
    """The W line of an instance file, and the C derived from it on load."""

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
        # Cut inside the W line; a file cut before it is TestInstanceRoundTrip's.
        path = tmp_path / "inst.txt"
        write_instance(_instance(4, 0.3, 0), path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 2)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 12 decimals for n = 4, got 10"):
            read_instance(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(_instance(3, 0.3, 1), path)
        with open(path, "a") as fh:
            fh.write("0.0 0.0\n")
        with pytest.raises(ValueError, match="trailing"):
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

    def test_one_entry_instance(self, tmp_path):
        # n = 1 leaves the W line without numbers.
        inst = SyncInstance(z=PhaseVector(np.array([1j])), sigma=0.5,
                            W=HermitianMatrix(np.zeros((1, 1), dtype=complex)), seed=4)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        back = read_instance(path)
        assert (back.n, back.sigma, back.seed) == (1, 0.5, 4)
        assert np.array_equal(back.z.vec, inst.z.vec)
        assert np.array_equal(back.C.mat, [[1.0]])

    def test_truncated_after_z_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 11)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        with pytest.raises(ValueError, match="ends early, missing 'W' line"):
            read_instance(path)

    def test_missing_section_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 9)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        del lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 'seed' line"):
            read_instance(path)

    def test_non_finite_entries_rejected(self, tmp_path):
        inst = _instance(4, 0.3, 12)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        poison_instance_file(path)
        with pytest.raises(ValueError, match="NaN or infinite"):
            read_instance(path)

    def test_off_modulus_signal_rejected(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(_instance(4, 0.3, 12), path)
        lines = path.read_text().splitlines()
        toks = lines[3].split()
        toks[1] = "0.5"
        lines[3] = " ".join(toks)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unit modulus"):
            read_instance(path)


class TestInstanceLayout:
    def test_dump_is_five_lines(self, tmp_path):
        n = 6
        inst = _instance(n, 0.4, 3)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0] == INSTANCE_MARKER == "phasesync-instance 2"
        assert lines[1:3] == ["sigma 0.40000000000000002", "seed 3"]
        assert [ln.split()[0] for ln in lines[3:]] == ["z", "W"]
        assert len(lines[3].split()) == 1 + 2 * n
        assert len(lines[4].split()) == 1 + n * (n - 1)

    def test_w_line_is_the_upper_triangle_row_by_row(self, tmp_path):
        inst = _instance(4, 0.4, 5)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        w = inst.W.mat
        upper = [w[0, 1], w[0, 2], w[0, 3], w[1, 2], w[1, 3], w[2, 3]]
        assert path.read_text().splitlines()[4] == "W " + _fmt_row(np.array(upper))

    def test_previous_layout_rejected(self, tmp_path):
        # The layout that stored C beside W, written out by hand.
        inst = _instance(4, 0.3, 2)
        blocks = []
        for name, h in (("W", inst.W), ("C", inst.C)):
            blocks += [name, "4"] + [_fmt_row(row) for row in h.mat]
        path = tmp_path / "inst.txt"
        path.write_text("\n".join(["n 4", "sigma 0.29999999999999999", "seed 2",
                                   "z " + _fmt_row(inst.z.vec)] + blocks) + "\n")
        with pytest.raises(ValueError, match=INSTANCE_MARKER):
            read_instance(path)

    def test_other_version_rejected(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(_instance(3, 0.3, 1), path)
        path.write_text(path.read_text().replace(INSTANCE_MARKER, "phasesync-instance 3", 1))
        with pytest.raises(ValueError, match=INSTANCE_MARKER):
            read_instance(path)


def poison_instance_file(path):
    """Overwrite the real part of W[0, 1] in an instance file with NaN. The
    loaded W keeps a NaN pair, which stays Hermitian as far as NaN
    comparisons can tell."""
    lines = path.read_text().splitlines()
    toks = lines[4].split()
    assert toks[0] == "W"
    toks[1] = "nan"
    lines[4] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
