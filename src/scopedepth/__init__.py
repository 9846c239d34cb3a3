"""Single-view depth and uncertainty workbench on procedural tube scenes.

The package provides, in dependency order: raster containers and the
PFM/PPM/JSON/CSV readers and writers (`imagery`), pinhole/SE(3) geometry and inverse warping (`geometry`),
SSIM / photometric residual / edge-aware smoothness (`photometry`),
heteroscedastic L1 likelihood losses with analytic gradients (`losses`),
a coarse log-parameter depth field predictor (`predictor`), deep-ensemble
fusion with variance decomposition (`ensemble`), gradient-descent training
on labeled frames or triplets (`trainer`), depth and calibration metrics
(`metrics`), a procedural colon-like scene generator (`synthcolon`), and
the `scopedepth` command line (`cli`), which builds the training data of
each of the paper's five supervision regimes.
"""

from .ensemble import EnsembleOutput, fuse, load_ensemble, save_ensemble, selfsup_fuse
from .geometry import (
    CameraIntrinsics,
    Pose,
    relative_pose,
    synthesize_warped_image,
)
from .imagery import (
    DepthMap,
    Image,
    Mask,
    UncMap,
    read_pfm,
    read_ppm,
    write_pfm,
    write_ppm,
)
from .losses import LossConfig, LossValue, prior_loss
from .metrics import (
    CalibrationCurve,
    DepthMetrics,
    auce,
    calibration_curve,
    default_p_grid,
    depth_metrics,
    normal_ppf,
    scale_correction,
)
from .predictor import DepthField, backward, forward, init_random
from .synthcolon import (
    LightModel,
    SceneParams,
    generate_trajectory,
    render_view,
    render_views,
    simulate_sfm_labels,
    write_dataset,
)
from .trainer import (
    LabeledFrame,
    TrainConfig,
    TrainData,
    TrainReport,
    Triplet,
    train_ensemble,
    train_member,
)

__version__ = "0.1.0"
