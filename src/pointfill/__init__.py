"""pointfill: a self-contained point cloud completion engine.

A partial cloud is encoded into patch features, expanded into a coarse but
complete set of seed points with per-seed features, and refined coarse to
fine by attention-based upsampling stages. Everything runs on a minimal
numpy reverse-mode autodiff core with a finite-difference audit suite.
"""

from . import autodiff
from .autodiff import Tape, Tensor
from .checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from .data import (
    SyntheticShapeSpec,
    build_synthetic_dataset,
    generate_shape,
    load_dataset,
    occlude_viewpoint,
    read_cloud,
    read_ply,
    read_xyz,
    resample_input,
    write_ply,
    write_xyz,
)
from .encoder import Encoder, PointTransformerLayer, SetAbstraction
from .errors import (
    ContractError,
    FormatError,
    NumericsError,
    ParseError,
    ShapeError,
)
from .generator import (
    SeedGenerator,
    UpsampleStage,
    UpsampleTransformer,
    seed_provenance,
)
from .geometry import (
    NeighborIndex,
    PointSet,
    canonical_start_index,
    farthest_point_sample,
    fuse_and_resample,
    interpolate_seed_features,
    knn,
)
from .gradcheck import grad_check
from .losses import (
    LossBreakdown,
    chamfer,
    completion_loss,
    fidelity,
    fscore,
    mmd,
    partial_matching_loss,
)
from .pipeline import (
    Adam,
    CompletionModel,
    ModelConfig,
    run_training,
)

__version__ = "0.1.0"
