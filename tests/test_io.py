import struct

import numpy as np
import pytest

from mssl import DataValidationError, seeded_rng
from mssl.io import (
    POOL_MAGIC,
    read_labeled_csv,
    read_pool_binary,
    read_pool_csv,
    write_pool_binary,
)
from mssl.core import UnlabeledPool


def test_pool_csv_roundtrip(tmp_path):
    Z = np.array([[1.5, -2.0], [0.25, 4.0], [3.0, 0.0]])
    path = tmp_path / "pool.csv"
    np.savetxt(path, Z, delimiter=",")
    pool = read_pool_csv(path)
    np.testing.assert_allclose(pool.Z, Z)


def test_labeled_csv_last_column_is_response(tmp_path):
    data = np.array([[1.0, 2.0, 10.0], [3.0, 4.0, 20.0]])
    path = tmp_path / "train.csv"
    np.savetxt(path, data, delimiter=",")
    ds = read_labeled_csv(path)
    np.testing.assert_allclose(ds.X, data[:, :2])
    np.testing.assert_allclose(ds.Y, [10.0, 20.0])


def test_labeled_csv_needs_two_columns(tmp_path):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.array([[1.0], [2.0]]), delimiter=",")
    with pytest.raises(DataValidationError):
        read_labeled_csv(path)


def test_csv_parse_failure(tmp_path):
    path = tmp_path / "garbage.csv"
    path.write_text("a,b\n1,oops\n")
    with pytest.raises(DataValidationError):
        read_pool_csv(path)


def test_binary_roundtrip(tmp_path):
    rng = seeded_rng(5)
    Z = rng.standard_normal((7, 3))
    Z[0, 0], Z[1, 1], Z[2, 2] = -0.0, 5e-324, 1.7e308  # signed zero, subnormal, near max
    path = tmp_path / "pool.bin"
    write_pool_binary(UnlabeledPool(Z), path)
    raw = path.read_bytes()
    assert raw[:4] == POOL_MAGIC
    assert len(raw) == 16 + 8 * Z.size  # 16-byte header then column-major f64
    back = read_pool_binary(path)
    assert back.Z.flags.f_contiguous
    assert back.Z.tobytes(order="F") == Z.tobytes(order="F")  # bit for bit


def test_binary_is_column_major(tmp_path):
    Z = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "pool.bin"
    write_pool_binary(UnlabeledPool(Z), path)
    payload = np.frombuffer(path.read_bytes()[16:], dtype="<f8")
    np.testing.assert_array_equal(payload, [1.0, 2.0, 3.0, 4.0])


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataValidationError):
        read_pool_binary(path)


def test_binary_truncated(tmp_path):
    rng = seeded_rng(6)
    path = tmp_path / "pool.bin"
    write_pool_binary(UnlabeledPool(rng.standard_normal((4, 2))), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataValidationError):
        read_pool_binary(path)


def _raw_pool(path, m, p, payload: bytes):
    path.write_bytes(struct.pack("<4sIII", POOL_MAGIC, m, p, 0) + payload)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_binary_nonfinite_payload(tmp_path, value):
    Z = seeded_rng(7).standard_normal((5, 3))
    Z[3, 1] = value
    path = tmp_path / "pool.bin"
    _raw_pool(path, 5, 3, Z.astype("<f8").tobytes(order="F"))
    with pytest.raises(DataValidationError, match="finite"):
        read_pool_binary(path)


def test_binary_trailing_byte(tmp_path):
    rng = seeded_rng(8)
    path = tmp_path / "pool.bin"
    write_pool_binary(UnlabeledPool(rng.standard_normal((4, 2))), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataValidationError, match="expected 80 bytes"):
        read_pool_binary(path)


def test_binary_header_claiming_more_rows_is_rejected_before_the_payload(tmp_path, monkeypatch):
    path = tmp_path / "pool.bin"
    _raw_pool(path, 2**31, 3, np.zeros(6).tobytes())

    def no_read(*args, **kwargs):
        raise AssertionError("payload read before the size check")

    monkeypatch.setattr(np, "fromfile", no_read)
    with pytest.raises(DataValidationError, match="2147483648x3"):
        read_pool_binary(path)
