"""Six-plane point-cloud representation: projection, encoding, attention
fusion, training, and evaluation at desk scale."""

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
