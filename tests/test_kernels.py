"""tests/kernels.py names the kernel set without ever raising."""

import kernels


def test_fingerprint_names_the_running_numpy():
    assert kernels.fingerprint().startswith(f"numpy {kernels.np.__version__}, ")


def test_fingerprint_survives_unreadable_parts(monkeypatch, tmp_path):
    # a numpy whose private dispatch tables moved, and a file named like
    # OpenBLAS that no loader can open
    fake = tmp_path / "libscipy_openblas64_-fake.so"
    fake.write_bytes(b"not a shared object")
    monkeypatch.setattr(kernels, "_umath", object())
    monkeypatch.setattr(kernels.glob, "glob", lambda pattern: [str(fake)])
    got = kernels.fingerprint()
    assert got == f"numpy {kernels.np.__version__}, targets unknown, OpenBLAS unknown"
    assert kernels.pin_message("recorded set").endswith(got)
