"""Every hygiene warning names the first caller outside qfisher."""

import warnings

import numpy as np
import pytest

from qfisher import (
    AliasingWarning,
    BoundaryMassWarning,
    GridDensity,
    GridSpec,
    HolderPair,
    QGaussianParams,
    TruncationWarning,
    UncertaintyParams,
    WaveFunction,
    fit_q_gaussian,
    fourier_transform,
    functional_cr_check,
    make_q_gaussian,
    moment,
    q_cr_check,
    uncertainty_check,
    zoo,
)

PAIR22 = HolderPair.from_alpha(2.0)
# boxes that cut a standard normal at 3 sigma
LINE = GridSpec.line(-3.0, 3.0, 129)
SQUARE = GridSpec.box(-3.0, 3.0, 65, 2)


def _quietly(build, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMassWarning)
        return build(*args)


CUT_1D = _quietly(zoo.gaussian_density, LINE)
CUT_2D = _quietly(zoo.gaussian_density, SQUARE)
# |psi| at the box ends is exp(-9/4) of its peak
CUT_PSI = WaveFunction.from_values(LINE, np.exp(-LINE.axes()[0] ** 2 / 4.0))

ENTRIES = {
    "zoo.gaussian_density": (lambda: zoo.gaussian_density(LINE), BoundaryMassWarning),
    "GridDensity.from_values": (lambda: GridDensity.from_values(LINE, np.ones(129)),
                                BoundaryMassWarning),
    "make_q_gaussian-q0.8": (
        lambda: make_q_gaussian(QGaussianParams(q=0.8, alpha=2.0, gamma=1.0),
                                GridSpec.line(-5.0, 5.0, 129)),
        BoundaryMassWarning),
    "moment": (lambda: moment(CUT_1D, 2.0), TruncationWarning),
    "fit_q_gaussian": (lambda: fit_q_gaussian(CUT_1D, 1.5, 2.0), TruncationWarning),
    "q_cr_check-1d": (lambda: q_cr_check(CUT_1D, PAIR22, 1.5), TruncationWarning),
    "q_cr_check-2d": (lambda: q_cr_check(CUT_2D, PAIR22, 1.5), TruncationWarning),
    "functional_cr_check": (lambda: functional_cr_check(CUT_1D, CUT_1D, PAIR22),
                            TruncationWarning),
    "fourier_transform": (lambda: fourier_transform(CUT_PSI), BoundaryMassWarning),
    "uncertainty_check": (lambda: uncertainty_check(CUT_PSI, UncertaintyParams(q=1.0, beta=2.0)),
                          BoundaryMassWarning),
}


@pytest.mark.parametrize("call, category", ENTRIES.values(), ids=ENTRIES)
def test_a_warning_names_the_callers_own_line(call, category):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        call()
    assert category in {w.category for w in rec}
    assert {w.category for w in rec} <= {BoundaryMassWarning, TruncationWarning, AliasingWarning}
    assert [w.filename for w in rec] == [__file__] * len(rec)
