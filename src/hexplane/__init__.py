"""Six-plane point-cloud representation: projection, encoding, attention
fusion, training, and evaluation at desk scale."""

import ctypes
import os


def _keep_freed_pages_mapped():
    """Ask glibc to keep freed heap pages mapped for reuse.

    By default glibc serves arrays above a sliding threshold from fresh
    mmaps and trims the heap top back to the kernel, so each forward or
    train step faults its arrays' pages in again (thousands of minor faults
    per op, microseconds each). With a 1 GiB trim threshold and a 32 MiB
    mmap threshold, freed pages are reused instead. The cost: memory freed
    by the process stays mapped until it exits. Other C libraries are left
    alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _one_blas_thread():
    """Run the OpenBLAS that numpy loaded on one thread, for the whole process.

    The model's GEMMs (2,000 x 32 x 32, im2col on 32 x 192 planes) are too
    small to share: a second thread doubles the CPU time per op at equal
    wall time, and the thread count changes the bits of every sum. On one
    thread the outputs do not depend on the core count. The setter is looked
    up through numpy's own extension, so the library found is the one numpy
    linked; where it does not export the symbol, nothing changes.
    """
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    set_threads(1)


_keep_freed_pages_mapped()
_one_blas_thread()

from .cloud import (
    PointCloud,
    Primitive,
    SceneSpec,
    UNLABELED,
    augment,
    default_features,
    load_pointcloud,
    make_occlusion_scene,
    save_pointcloud,
    synth_scene,
)
from .projection import (
    EMPTY,
    PLANE_KINDS,
    GridCoords,
    HexPlaneSet,
    PlaneSpec,
    ProjectionIndex,
    SensorConfig,
    default_plane_specs,
    gather_offsets,
    hexplane_project,
    project_cylindrical,
    project_orthographic,
    rasterize,
    rasterize_labels,
    winner_table,
)
from .encoder import encode_plane, feature_grid, fuse_scales
from .attention import (
    cross_attention_backward,
    cross_attention_forward,
    gather_plane_features,
)
from .heads import IGNORE, LossReport, composite_loss
from .model import HexPlaneModel, ModelConfig
from .training import TrainSettings, adamw_step, lr_schedule, train_toy
from .metrics import (
    ConfusionMatrix,
    PRCurve,
    average_precision,
    box_iou,
    mean_average_precision,
    segmentation_scores,
)
from .gradcheck import grad_check
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
