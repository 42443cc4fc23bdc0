"""Spectral analysis of 1-D Schrodinger operators whose point couplings are
given by a singular signed measure (atoms and Cantor-type staircases).

Core objects: SingularMeasure/CantorSpec (the coupling data), ProblemSpec
(interval, boundary conditions, piecewise-constant potential, refinement
level), and the solvers in spectrum/resolvent/asymptotics built on exact
transfer-matrix propagation, with an independent Galerkin oracle.
"""

__version__ = "0.1.0"

from .errors import (DeltaPrimeError, DomainError, DomainViolationError,
                     InsufficientDataError, MeshRefinementError,
                     NearSingularError, PropagationOverflowError,
                     RefinementUnavailableError, SchemaError,
                     UnsupportedHypothesisError)
from .measures import (CantorSpec, HahnDecomposition, SingularMeasure,
                       distribution, hahn, kappa_minus, peak_variation,
                       realize)
from .propagate import (PiecewisePotential, ProblemSpec, StateVector,
                        TransferMatrix, atom_jump, propagate,
                        stretch_propagator, transfer_matrix, wronskian)
from .spectrum import (FormValue, GalerkinOracle, JumpFunction, SpectralData,
                       counting_function, eigenvalues, jump_function_l2,
                       negative_count, quadratic_form, shoot,
                       spectral_function, spectral_function_samples)
from .resolvent import GreenKernel, convergence_study, green, hs_distance
from .classify import (CriteriaReport, EndpointDescriptor, EndpointVerdict,
                       GapStructure, classify_endpoint, deficiency_indices,
                       evaluate_criteria)
from .asymptotics import (AsymptoticFit, m_asymptotics_check, m_function,
                          power_constant, rho_asymptotics_check,
                          scale_function, weyl_fit)

__all__ = [name for name in dir() if not name.startswith("_")]
