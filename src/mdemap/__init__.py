"""mdemap: multiscale moving direction entropy maps from GPS trajectories."""

from .errors import (ConfigError, EmptyFieldError, InvalidAngleError,
                     InvalidScaleError, MdemapError, PointParseError)
from .mesh import (AreaOfInterest, DEFAULT_AOI, EARTH_RADIUS_M, GeoPoint,
                   LocalCoord, MeshId, METERS_PER_DEGREE, STANDARD_SCALES_M,
                   inverse_project, mesh_center, mesh_centers, mesh_corners)
from .ingest import (ExtractionStats, ExtractSettings, MovementBatch,
                     ParseResult, extract_movements, parse_points)
from .field import (ALL_TIME, FieldAccumulator, FieldSettings, MAX_ENTROPY,
                    MdeField, MeshEntry, N_BINS, TimeWindow, compute_fields)
from .fusion import (CombinedMap, FusionSettings, combine, find_local_peaks,
                     normalize)
from .evaluation import (DEFAULT_RADII_KM, DEFAULT_THRESHOLDS_M,
                         DEFAULT_TOP_K, EvaluationSettings, PrecisionCurve,
                         RecallCurve, Station, TopKSelection, check_stations,
                         default_x_values, precision_curve, recall_curve,
                         top_k)
from .synth import (Corridor, GroundTruth, Hub, SynthConfig, default_sites,
                    generate)
from . import kernels

__version__ = "0.1.0"

__all__ = [
    "AreaOfInterest", "ALL_TIME", "CombinedMap", "ConfigError", "Corridor",
    "DEFAULT_AOI", "DEFAULT_RADII_KM", "DEFAULT_THRESHOLDS_M", "DEFAULT_TOP_K",
    "EARTH_RADIUS_M", "EmptyFieldError", "EvaluationSettings",
    "ExtractionStats", "ExtractSettings", "FieldAccumulator", "FieldSettings",
    "FusionSettings", "GeoPoint", "GroundTruth", "Hub", "InvalidAngleError",
    "InvalidScaleError", "LocalCoord", "MAX_ENTROPY", "MdeField",
    "MdemapError", "MeshEntry", "MeshId", "METERS_PER_DEGREE", "MovementBatch",
    "N_BINS", "ParseResult", "PointParseError", "PrecisionCurve",
    "RecallCurve", "STANDARD_SCALES_M", "Station", "SynthConfig", "TimeWindow",
    "TopKSelection", "check_stations", "combine", "compute_fields",
    "default_sites", "default_x_values", "extract_movements",
    "find_local_peaks", "generate", "inverse_project", "kernels",
    "mesh_center", "mesh_centers", "mesh_corners", "normalize", "parse_points",
    "precision_curve", "recall_curve", "top_k",
]
