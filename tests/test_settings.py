"""The settings objects: each refuses every bad value it documents."""

import math

import pytest

from mdemap import (ConfigError, EvaluationSettings, ExtractSettings,
                    FieldSettings, FusionSettings)

NAN, INF = math.nan, math.inf

BAD = {
    ExtractSettings: {
        "direction": ["imu", "west", None],
        "min_displacement": [-1.0, NAN, INF, -INF],
        "max_gap": [0.0, -1.0, NAN, INF, -INF],
    },
    FieldSettings: {
        "scales": [(), (100, 0), (100, -100), (100, 100), (100.5,), (NAN,),
                   (INF,), (True, 1000), ("100",)],
        "window": [0, -5.0, "0", "-5", "soon", "nan", "inf", "-inf", NAN,
                   INF, -INF, True, None],
        "min_samples": [0, -1, 2.5, NAN, INF, -INF, True],
    },
    FusionSettings: {
        "mode": ["median", "MEAN"],
        "percentile_floor": [-1.0, 100.5, NAN, INF, -INF],
    },
    EvaluationSettings: {
        "top_k": [((100, 0),), ((100, -5),), ((0, 5),), ((100, 5), (100, 7)),
                  ((100, 2.5),), ((100.5, 5),), ((100, NAN),),
                  ((100, INF),), ((100, True),), ((True, 5),)],
        "radii": [(), (0.0,), (-1.0,), (NAN, 1.0), (1.0, INF), (-INF,)],
    },
}


CASES = [(cls, name, value) for cls, values in BAD.items()
         for name, bad in values.items() for value in bad]


@pytest.mark.parametrize("cls, name, value", CASES, ids=[
    f"{cls.__name__}-{name}-{value!r}".replace(" ", "")
    for cls, name, value in CASES])
def test_bad_settings_are_refused(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


def test_k_of_a_scale_is_its_override_else_its_default():
    settings = EvaluationSettings(((100, 5),))
    assert (settings.k(100), settings.k(1000), settings.k(250)) == (5, 60, 50)
