"""flowseg: windowed segmentation of dominant linear motion flows.

Dense optical flow seeds keypoint groups on the first two frames of each
temporal window; a stochastic drift/confinement particle model propagates
the groups across the remaining frames in one call per window, so flow is
computed once per window instead of once per frame pair.
"""

from .dynamics import (
    GroupForces,
    LangevinParams,
    NoiseSource,
    estimate_group_forces,
    propagate_map,
)
from .errors import (
    ConfigError,
    FlowSegError,
    FormatError,
    InputError,
    MetricError,
    SourceError,
)
from .evaluation import (
    AccuracyReport,
    LabelMask,
    accuracy,
    iou,
    rasterize,
    rasterize_maps,
    render_overlay,
    render_overlays,
    report,
)
from .flow import FlowParams, compute_dense_flow
from .io import (
    FlowField,
    Frame,
    read_flow_file,
    read_frame,
    write_flow_file,
    write_frame,
)
from .keypoints import (
    Group,
    KeypointParams,
    QuantizedMap,
    SegmentationMap,
    detect_peaks,
    group_keypoints,
    maps_identical,
    segment_flow,
)
from .pipeline import PipelineConfig, RunResult, segment_video, stream_windows
from .synth import (
    BlockSpec,
    SceneSpec,
    ar1_stationary_variance,
    bench_compare,
    generate_scene,
    iter_scene,
    noise_texture,
    ou_statistics,
    preset_scene,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "BlockSpec",
    "ConfigError",
    "FlowField",
    "FlowParams",
    "FlowSegError",
    "FormatError",
    "Frame",
    "Group",
    "GroupForces",
    "InputError",
    "KeypointParams",
    "LabelMask",
    "LangevinParams",
    "MetricError",
    "NoiseSource",
    "PipelineConfig",
    "QuantizedMap",
    "RunResult",
    "SceneSpec",
    "SegmentationMap",
    "SourceError",
    "accuracy",
    "ar1_stationary_variance",
    "bench_compare",
    "compute_dense_flow",
    "detect_peaks",
    "estimate_group_forces",
    "generate_scene",
    "group_keypoints",
    "iou",
    "iter_scene",
    "maps_identical",
    "noise_texture",
    "ou_statistics",
    "preset_scene",
    "propagate_map",
    "rasterize",
    "rasterize_maps",
    "read_flow_file",
    "read_frame",
    "render_overlay",
    "render_overlays",
    "report",
    "segment_flow",
    "segment_video",
    "stream_windows",
    "write_flow_file",
    "write_frame",
]
