"""The package runs OpenBLAS on one thread, so outputs do not depend on the
BLAS thread count the environment asks for."""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hexplane

SRC = Path(hexplane.__file__).resolve().parents[1]
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "occlusion_transfer.yaml"


def test_import_leaves_openblas_on_one_thread():
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get_threads is None:  # numpy links another BLAS: nothing was set
        return
    get_threads.restype = ctypes.c_int
    assert get_threads() == 1


def test_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "hexplane.cli", "train", "--config", str(CONFIG),
                        "--steps", "3", "--output-dir", str(out_dir)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                        for name in ("checkpoint.bin", "log.jsonl")})
    assert outputs[0] == outputs[1]
