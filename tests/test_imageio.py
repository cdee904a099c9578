"""16-bit PGM codec and float32 plane I/O."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from suascal.errors import ImageFormatError, SuascalError
from helpers import write_pgm16
from suascal.imageio import read_pgm16, read_plane, write_plane


class TestPgm:
    def test_round_trip_random_image(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 65536, size=(30, 41)).astype(np.uint16)
        path = tmp_path / "img.pgm"
        write_pgm16(path, pixels)
        back = read_pgm16(path)
        assert back.dtype == np.uint16
        assert np.array_equal(back, pixels)

    def test_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm16(path, np.array([[0x1234]], dtype=np.uint16))
        raw = path.read_bytes()
        assert raw.endswith(b"\x12\x34")

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n65535\n"
                         b"\x00\x01\x00\x02")
        assert read_pgm16(path).tolist() == [[1, 2]]

    def test_pixels_at_an_odd_offset(self, tmp_path):
        # A 17-byte header puts every sample at an odd byte offset.
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# c\n2 1\n65535\n\x12\x34\xab\xcd")
        pixels = read_pgm16(path)
        assert pixels.dtype == np.uint16
        assert pixels.tolist() == [[0x1234, 0xABCD]]

    def test_eight_bit_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError):
            read_pgm16(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
        with pytest.raises(ImageFormatError, match="magic b'P6'"):
            read_pgm16(path)

    def test_header_cut_short_is_not_a_bad_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n")
        with pytest.raises(ImageFormatError, match="incomplete PGM header"):
            read_pgm16(path)

    def test_nul_in_path_is_unreadable(self, tmp_path):
        with pytest.raises(ImageFormatError, match="cannot read"):
            read_pgm16(tmp_path / "nul\x00.pgm")

    def test_over_long_header_number_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n65535\n\x00\x01")
        with pytest.raises(ImageFormatError, match="too long"):
            read_pgm16(path)

    @given(data=st.tuples(
        st.sampled_from([b"", b"P5", b"P5\n", b"P5\n2 2\n",
                         b"P5\n2 2\n65535\n", b"P5 1 1 300 ", b"P6\n"]),
        st.binary(max_size=24)))
    def test_any_bytes_decode_or_raise_a_suascal_error(self,
                                                       tmp_path_factory,
                                                       data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.pgm"
        path.write_bytes(b"".join(data))
        try:
            pixels = read_pgm16(path)
        except SuascalError:
            return
        assert pixels.dtype == np.uint16 and pixels.ndim == 2

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x01\x00")
        with pytest.raises(ImageFormatError):
            read_pgm16(path)

    def test_write_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_pgm16(tmp_path / "img.pgm",
                        np.array([[70000]], dtype=np.int64))


class TestPlane:
    def test_round_trip_with_sidecar(self, tmp_path):
        pixels = np.array([[0.5, -1.25], [3.75, 0.0]])
        path = tmp_path / "plane.f32"
        write_plane(path, pixels, band_index=3, units="reflectance")
        back, meta = read_plane(path)
        assert np.array_equal(back, pixels)
        assert back.dtype == np.float64
        assert meta["band_index"] == 3
        assert meta["units"] == "reflectance"
        assert meta["width"] == 2 and meta["height"] == 2

    def test_sidecar_is_stable_json(self, tmp_path):
        path = tmp_path / "plane.f32"
        write_plane(path, np.zeros((1, 1)), band_index=1, units="x")
        first = (tmp_path / "plane.f32.json").read_bytes()
        write_plane(path, np.zeros((1, 1)), band_index=1, units="x")
        assert (tmp_path / "plane.f32.json").read_bytes() == first
        json.loads(first)  # valid JSON

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "plane.f32"
        path.write_bytes(b"\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            read_plane(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "plane.f32"
        write_plane(path, np.zeros((2, 2)), band_index=1, units="x")
        path.write_bytes(b"\x00" * 12)  # 3 floats for a 4-pixel sidecar
        with pytest.raises(ImageFormatError):
            read_plane(path)

    def test_values_stored_as_float32(self, tmp_path):
        path = tmp_path / "plane.f32"
        write_plane(path, np.array([[1.0 / 3.0]]), band_index=1, units="x")
        back, _ = read_plane(path)
        assert back[0, 0] == np.float32(1.0 / 3.0)

    @settings(max_examples=80, deadline=None)
    @given(sidecar=helpers.json_values
           | st.fixed_dictionaries({"width": helpers.json_values,
                                    "height": helpers.json_values}),
           plane=st.binary(max_size=40))
    def test_any_sidecar_and_bytes_read_or_raise(self, tmp_path_factory,
                                                 sidecar, plane):
        """Whatever the sidecar JSON and plane bytes, ``read_plane``
        returns the plane or raises a :class:`SuascalError`."""
        path = tmp_path_factory.mktemp("plane") / "p.f32"
        path.write_bytes(plane)
        Path(str(path) + ".json").write_text(json.dumps(sidecar))
        try:
            pixels, meta = read_plane(path)
        except SuascalError:
            return
        assert pixels.size * 4 == len(plane)
        assert pixels.shape == (meta["height"], meta["width"])

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 4), height=st.integers(1, 4),
           extra=st.integers(-3, 3))
    def test_consistent_sidecar_reads_back(self, tmp_path_factory, width,
                                           height, extra):
        path = tmp_path_factory.mktemp("plane") / "p.f32"
        write_plane(path, np.zeros((height, width)), band_index=1, units="x")
        path.write_bytes(b"\0" * (4 * width * height + extra))
        if extra:
            with pytest.raises(ImageFormatError):
                read_plane(path)
        else:
            assert read_plane(path)[0].shape == (height, width)
