"""suascal: radiometric calibration toolkit for five-band sUAS imagery.

The pipeline runs raw digital counts -> spectral radiance -> surface
reflectance, with three reflectance routes (one- and two-point empirical
line, and the at-altitude radiance ratio against a downwelling light
sensor), plus a parametric radiative-transfer simulator that measures how
much error the ratio route inherits from the intervening air.
"""

from .errors import (CurveError, DegeneratePanelsError, ImageFormatError,
                     ManifestError, MetadataError, NoIlluminationError,
                     OrientationError, SuascalError)
from .radiance import (RadianceImage, RadiometricMetadata, RawImage,
                       VignetteModel, dc_to_radiance, row_factors,
                       vignette_map)
from .reflectance import (CalibrationImage, DLSRecord, ElmModel,
                          PanelObservation, ReflectanceImage, aarr,
                          apply_elm, dls_correct, dls_distance,
                          extract_panel, fit_elm_1pt, fit_elm_2pt,
                          irradiance_to_radiance, panel_band_reflectance,
                          select_calibration, selection_metric)
from .rsr import (MonochromatorRun, SpectralCurve, band_effective,
                  normalize_counts, peak_normalize, read_spectral_curve,
                  relative_response, write_spectral_curve)
from .simulate import (AtmosphereState, Scene, SimulationGrid,
                       SimulationTable, dls_downwelling, parametric_atmosphere,
                       run_maarr_grid, sensor_radiance)
from .evaluate import (ErrorReport, TargetSample, aggregate, anova_oneway,
                       cosine_falloff_check, f_survival, ndvi,
                       regularized_incomplete_beta, signed_error)
from .manifest import FlightManifest, load_manifest

__version__ = "0.1.0"

__all__ = [
    "AtmosphereState", "CalibrationImage", "CurveError", "DLSRecord",
    "DegeneratePanelsError", "ElmModel", "ErrorReport", "FlightManifest",
    "ImageFormatError", "ManifestError", "MetadataError",
    "MonochromatorRun", "NoIlluminationError", "OrientationError",
    "PanelObservation", "RadianceImage", "RadiometricMetadata", "RawImage",
    "ReflectanceImage", "Scene", "SimulationGrid", "SimulationTable",
    "SpectralCurve", "SuascalError", "TargetSample",
    "VignetteModel", "aarr", "aggregate", "anova_oneway", "apply_elm",
    "band_effective", "cosine_falloff_check", "dc_to_radiance",
    "dls_correct", "dls_distance", "dls_downwelling", "extract_panel",
    "f_survival", "fit_elm_1pt", "fit_elm_2pt",
    "irradiance_to_radiance", "load_manifest", "ndvi", "normalize_counts",
    "panel_band_reflectance", "parametric_atmosphere", "peak_normalize",
    "read_spectral_curve", "regularized_incomplete_beta",
    "relative_response", "row_factors", "run_maarr_grid",
    "select_calibration", "selection_metric", "sensor_radiance",
    "signed_error", "vignette_map", "write_spectral_curve",
]
