"""Serialization tests: the binary cube container (byte-level oracles,
round trips, every malformed-file error) and the CSV report writers
(schemas, exact float round trips, byte determinism).
"""

import contextlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from lrma_uq import (
    BadMagicError,
    ContainerError,
    HsiCube,
    ImpulseSweepReport,
    McReport,
    NormalityReport,
    PipelineConfig,
    RankSweepReport,
    TimingReport,
    TruncatedPayloadError,
    UnknownDtypeError,
    cli,
    io,
    read_cube,
    write_cube,
    write_qq_csv,
    write_report_csv,
)
from oracles import read_report_csv


def random_cube(dims=(4, 3, 5), seed=0) -> HsiCube:
    rng = np.random.default_rng(seed)
    return HsiCube(rng.uniform(-2.0, 2.0, size=dims))


class TestCubeContainer:
    def test_f64_round_trip_is_bit_identical(self, tmp_path):
        cube = random_cube()
        path = tmp_path / "cube.hsic"
        write_cube(cube, str(path))
        back = read_cube(str(path))
        assert back.data.tobytes() == cube.data.tobytes()

    def test_f32_round_trip_is_lossy_but_close(self, tmp_path):
        cube = HsiCube(np.full((2, 2, 2), 1.0 / 3.0))
        path = tmp_path / "cube32.hsic"
        write_cube(cube, str(path), dtype="f32")
        back = read_cube(str(path))
        assert not np.array_equal(back.data, cube.data)
        np.testing.assert_allclose(back.data, cube.data, rtol=1e-6)

    def test_exact_bytes_for_tiny_zero_cube(self, tmp_path):
        path = tmp_path / "zeros.hsic"
        write_cube(HsiCube(np.zeros((2, 2, 1))), str(path))
        assert path.read_bytes() == b"HSIC1 2 2 1 f64 BSQ LE\n" + b"\x00" * 32

    def test_payload_is_band_sequential_row_major(self, tmp_path):
        # Entry (row i, col j, band k) must land at scalar offset
        # k*M*N + i*N + j: whole bands first, each band row-major.
        m, n, p = 2, 3, 2
        data = np.empty((m, n, p))
        for i in range(m):
            for j in range(n):
                for k in range(p):
                    data[i, j, k] = 100 * i + 10 * j + k
        path = tmp_path / "layout.hsic"
        write_cube(HsiCube(data), str(path))
        raw = path.read_bytes()
        payload = np.frombuffer(raw[raw.index(b"\n") + 1:], dtype="<f8")
        for i in range(m):
            for j in range(n):
                for k in range(p):
                    assert payload[k * m * n + i * n + j] == data[i, j, k]

    def test_write_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(UnknownDtypeError, match="f16"):
            write_cube(random_cube(), str(tmp_path / "x.hsic"), dtype="f16")

    def test_f32_write_refuses_values_beyond_float32_and_leaves_no_file(self, tmp_path):
        data = np.zeros((2, 2, 2))
        path = tmp_path / "big32.hsic"
        for value in (1e39, -1e39):
            data[1, 0, 1] = value
            with pytest.raises(ValueError, match="float32 range"):
                write_cube(HsiCube(data), str(path), dtype="f32")
            assert not path.exists()
        write_cube(HsiCube(data), str(path))  # f64 holds it exactly
        assert read_cube(str(path)).data[1, 0, 1] == -1e39

    def test_f32_overflow_leaves_an_existing_file_untouched(self, tmp_path):
        # The overflow is refused before the target is opened, so a file
        # already there keeps its bytes.
        path = tmp_path / "kept.hsic"
        write_cube(random_cube(seed=4), str(path))
        before = path.read_bytes()
        data = np.zeros((40, 30, 7))
        data[39, 29, 6] = 1e39  # in the last slab of a several-slab write
        with pytest.raises(ValueError, match="float32 range"):
            write_cube(HsiCube(data), str(path), dtype="f32")
        assert path.read_bytes() == before

    def test_write_is_byte_deterministic(self, tmp_path):
        cube = random_cube(seed=9)
        a, b = tmp_path / "a.hsic", tmp_path / "b.hsic"
        write_cube(cube, str(a))
        write_cube(cube, str(b))
        assert a.read_bytes() == b.read_bytes()


def one_copy_bytes(cube: HsiCube, dtype: str) -> bytes:
    """The container as one transposed copy of the whole cube writes it."""
    m, n, p = cube.dims
    dt = {"f32": "<f4", "f64": "<f8"}[dtype]
    payload = np.ascontiguousarray(np.moveaxis(cube.data, 2, 0), dtype=dt)
    return f"HSIC1 {m} {n} {p} {dtype} BSQ LE\n".encode("ascii") + payload.tobytes()


class TestBandSlabs:
    # write_cube converts whole bands in slabs of at most io._CHUNK bytes,
    # one band at least. Each case spans several slabs or cuts a band.
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("dims, chunk", [
        ((128, 128, 20), None),  # 1 MiB: f64 slabs of 8, 8, 4 bands; f32 16, 4
        ((40, 30, 7), 3 * 40 * 30 * 8),  # f64 slabs of 3, 3, 1 bands; f32 6, 1
        ((40, 30, 1), 1000),  # P = 1: one band over the slab size
    ], ids=["1MiB-partial-last", "small-slabs", "one-band"])
    def test_slabs_write_the_bytes_of_one_copy(self, tmp_path, monkeypatch, dtype, dims, chunk):
        if chunk is not None:
            monkeypatch.setattr(io, "_CHUNK", chunk)
        cube = random_cube(dims, seed=11)
        path = tmp_path / "slabs.hsic"
        write_cube(cube, str(path), dtype=dtype)
        assert path.read_bytes() == one_copy_bytes(cube, dtype)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hsic"
        path.write_bytes(b"CUBE9 2 2 1 f64 BSQ LE\n" + b"\x00" * 32)
        with pytest.raises(BadMagicError, match="HSIC1"):
            read_cube(str(path))

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "short.hsic"
        path.write_bytes(b"HSIC1 2 2 1 f64 BSQ LE\n" + b"\x00" * 16)
        with pytest.raises(TruncatedPayloadError, match="expected 32 bytes, got 16"):
            read_cube(str(path))

    def test_payload_checked_against_file_size_before_allocation(self, tmp_path):
        # The header promises 80 TB; the file holds 2 payload bytes.
        path = tmp_path / "huge.hsic"
        path.write_bytes(b"HSIC1 100000 100000 1000 f64 BSQ LE\n" + b"\x00" * 2)
        assert path.stat().st_size == 38
        with pytest.raises(TruncatedPayloadError,
                           match="expected 80000000000000 bytes, got 2"):
            read_cube(str(path))

    def test_unknown_dtype_in_header(self, tmp_path):
        path = tmp_path / "dtype.hsic"
        path.write_bytes(b"HSIC1 2 2 1 f16 BSQ LE\n" + b"\x00" * 8)
        with pytest.raises(UnknownDtypeError, match="f16"):
            read_cube(str(path))

    @pytest.mark.parametrize(
        "header, fragment",
        [
            (b"HSIC1 2 2 1 f64 BSQ LE extra\n", "7 fields"),
            (b"HSIC1 2 2 f64 BSQ LE\n", "7 fields"),
            (b"HSIC1 2 two 1 f64 BSQ LE\n", "non-integer"),
            (b"HSIC1 2 0 1 f64 BSQ LE\n", "positive"),
            (b"HSIC1 2 2 1 f64 BIL LE\n", "BSQ"),
            (b"HSIC1 2 2 1 f64 BSQ BE\n", "LE"),
        ],
    )
    def test_malformed_headers(self, tmp_path, header, fragment):
        path = tmp_path / "hdr.hsic"
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ContainerError, match=fragment):
            read_cube(str(path))

    def test_swapped_header_fields_rejected(self, tmp_path):
        # Field order is part of the format: dtype and layout swapped must
        # not silently parse.
        path = tmp_path / "swap.hsic"
        path.write_bytes(b"HSIC1 2 2 1 BSQ f64 LE\n" + b"\x00" * 32)
        with pytest.raises(ContainerError):
            read_cube(str(path))

    def test_missing_header_newline(self, tmp_path):
        path = tmp_path / "noline.hsic"
        path.write_bytes(b"HSIC1 2 2 1 f64 BSQ LE")
        with pytest.raises(ContainerError, match="unterminated"):
            read_cube(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.hsic"
        path.write_bytes(b"")
        with pytest.raises(ContainerError, match="header"):
            read_cube(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.hsic"
        path.write_bytes(b"HSIC1 2 2 1 f64 BSQ LE\n" + b"\x00" * 33)
        with pytest.raises(ContainerError, match="trailing"):
            read_cube(str(path))


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, as tracemalloc sees them (numpy
    reports its array buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestContainerMemory:
    # The band-sequential payload is one cube. Writing converts it in slabs
    # of whole bands of at most 1 MiB, and reading fills the returned cube
    # straight from the file, plus the cube's one-byte-per-entry finiteness
    # mask (1/8 cube). Neither holds the payload twice: both peaked at about
    # 2 cubes when it also went through a bytes object.
    def test_write_and_read_hold_one_cube(self, tmp_path):
        cube = random_cube((48, 40, 24), seed=3)
        path = str(tmp_path / "big.hsic")
        assert traced_peak(lambda: write_cube(cube, path)) <= 1.1 * cube.data.nbytes
        assert traced_peak(lambda: read_cube(path)) <= 1.15 * cube.data.nbytes
        assert read_cube(path).data.tobytes() == cube.data.tobytes()

    def test_write_holds_one_slab(self, tmp_path):
        # 128x128x64 f64 is 8 MiB: slabs of 8 bands, 1 MiB each.
        cube = random_cube((128, 128, 64), seed=5)
        path = str(tmp_path / "slabs.hsic")
        assert traced_peak(lambda: write_cube(cube, path)) <= 1.1 * (1 << 20)
        assert read_cube(path).data.tobytes() == cube.data.tobytes()


@contextlib.contextmanager
def piped(data: bytes):
    """Yield a /dev/fd path that reads `data` from a pipe, fed by a writer
    thread so that data larger than the pipe buffer does not block."""
    read_fd, write_fd = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join(timeout=30)
        assert not writer.is_alive()


HUGE_HEADER = b"HSIC1 100000 100000 1000 f64 BSQ LE\n"


class TestPipeInput:
    # A pipe has no size to check, so its payload is read in bounded
    # chunks: a header promising 80 TB must not allocate it up front.
    def test_huge_header_on_a_pipe_is_truncated_not_allocated(self):
        with piped(HUGE_HEADER + b"\x00" * 2) as path:
            def read():
                with pytest.raises(TruncatedPayloadError,
                                   match="expected 80000000000000 bytes, got 2"):
                    read_cube(path)
            assert traced_peak(read) < 4 << 20

    def test_cube_larger_than_the_pipe_buffer_round_trips(self, tmp_path):
        # 1.3 MB: many pipe buffers and more than one read chunk.
        cube = random_cube((64, 64, 40), seed=4)
        path = tmp_path / "big.hsic"
        write_cube(cube, str(path))
        with piped(path.read_bytes()) as fd_path:
            back = read_cube(fd_path)
        assert back.data.tobytes() == cube.data.tobytes()

    def test_short_pipe_is_one_cli_error_line(self, capsys):
        with piped(HUGE_HEADER + b"\x00" * 2) as path:
            code = cli.main(["denoise", "--in", path, "--out", "o.hsic",
                             "--window", "6", "--step", "3", "--rank", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: truncated payload: expected 80000000000000 bytes, got 2\n"


def tiny_cube() -> HsiCube:
    return HsiCube(np.zeros((1, 1, 1)))


def make_mc_report() -> McReport:
    return McReport(
        trials=100,
        sigma0=0.1,
        impulse_ratio=np.pi / 10,
        base_seed=42,
        sigma_mode="trial0",
        config=PipelineConfig(),
        trial_mean=tiny_cube(),
        coverage=tiny_cube(),
        mean_coverage=0.1 + 0.2,  # deliberately not representable as "0.3"
        std_coverage=1.0 / 3.0,
    )


class TestReportCsv:
    def test_mc_report_schema_and_exact_round_trip(self, tmp_path):
        path = tmp_path / "mc.csv"
        write_report_csv(make_mc_report(), str(path))
        header, rows = read_report_csv(str(path))
        assert header == ["sigma0", "impulse_ratio", "T", "mean_coverage", "std_coverage"]
        assert rows == [[0.1, np.pi / 10, 100.0, 0.1 + 0.2, 1.0 / 3.0]]

    def test_normality_report_schema(self, tmp_path):
        report = NormalityReport(
            sw_statistic=0.987654321987654, p_value=1e-17, n=100,
        )
        path = tmp_path / "sw.csv"
        write_report_csv(report, str(path))
        header, rows = read_report_csv(str(path))
        assert header == ["n", "sw_statistic", "p_value"]
        assert rows == [[100.0, 0.987654321987654, 1e-17]]

    def test_rank_sweep_schema_preserves_row_order(self, tmp_path):
        report = RankSweepReport(
            rows=[(7, 0.95), (3, 0.91), (5, 0.93)],
            sigma0=0.1, impulse_ratio=0.0, trials=50,
        )
        path = tmp_path / "ranks.csv"
        write_report_csv(report, str(path))
        header, rows = read_report_csv(str(path))
        assert header == ["rank", "mean_coverage"]
        assert rows == [[7.0, 0.95], [3.0, 0.91], [5.0, 0.93]]

    def test_impulse_sweep_schema(self, tmp_path):
        report = ImpulseSweepReport(
            rows=[(0.05, 0.0, 0.95, 0.01), (0.05, 0.1, 0.80, 0.05)], trials=50,
        )
        path = tmp_path / "impulse.csv"
        write_report_csv(report, str(path))
        header, rows = read_report_csv(str(path))
        assert header == ["sigma0", "impulse_ratio", "mean_coverage", "std_coverage"]
        assert rows == [[0.05, 0.0, 0.95, 0.01], [0.05, 0.1, 0.80, 0.05]]

    def test_timing_report_schema(self, tmp_path):
        report = TimingReport(
            mc_total_s=12.5, lrma_only_s=0.125, lrma_plus_uq_s=0.15625, mc_trials=100,
        )
        path = tmp_path / "timing.csv"
        write_report_csv(report, str(path))
        header, rows = read_report_csv(str(path))
        assert header == ["mc_trials", "mc_total_s", "lrma_only_s", "lrma_plus_uq_s"]
        assert rows == [[100.0, 12.5, 0.125, 0.15625]]

    def test_unknown_report_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="dict"):
            write_report_csv({"not": "a report"}, str(tmp_path / "x.csv"))

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(make_mc_report(), str(a))
        write_report_csv(make_mc_report(), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestQqCsv:
    def test_pairs_written_sorted_by_theoretical_quantile(self, tmp_path):
        pairs = np.array([[0.5, 0.4], [-1.0, -1.2], [0.0, 0.1]])
        path = tmp_path / "qq.csv"
        write_qq_csv(pairs, str(path))
        header, rows = read_report_csv(str(path))
        assert header == ["theoretical", "empirical"]
        assert rows == [[-1.0, -1.2], [0.0, 0.1], [0.5, 0.4]]

    def test_values_round_trip_exactly(self, tmp_path):
        pairs = np.column_stack([np.array([-np.pi, np.e]), np.array([1.0 / 7.0, 2.0 / 7.0])])
        path = tmp_path / "qq_exact.csv"
        write_qq_csv(pairs, str(path))
        _, rows = read_report_csv(str(path))
        assert rows == [[-np.pi, 1.0 / 7.0], [np.e, 2.0 / 7.0]]

    def test_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            write_qq_csv(np.zeros((3, 3)), str(tmp_path / "bad.csv"))


class TestReadReportCsv:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_report_csv(str(path))
