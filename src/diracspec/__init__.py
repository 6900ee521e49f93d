"""Numerical spectral diagnostics for half-line Dirac systems whose
potentials grow without bound at infinity."""

from .coefficients import (  # noqa: F401
    ChannelSystem,
    CoefficientFunction,
    CoefficientModel,
    ConstantChannel,
    DomainError,
    assemble_channel,
    coefficient,
    constant,
    model_from_dict,
    power,
)

__version__ = "0.1.0"
