import pytest

import qhsd
from qhsd import encoding, interferometry, states

# Names the library does not define: tensor, permute_qubits, pure_state,
# random_mixed and estimate_overlap are test oracles (tests/oracles.py);
# CoincidenceCounts became OverlapEstimate.counts; min_eigenvalues became
# encoding.check_encodable; singlet_projector is
# make_bell(BellKind.PSI_MINUS).matrix; GeneratorBasis became the stack that
# generator_basis returns, with I/D from maximally_mixed; NAMED_PARAMS became
# states.NAMED_STATES; the others had no CLI path.
REMOVED = {
    "CoincidenceCounts",
    "EnsembleSpec",
    "GeneratorBasis",
    "NAMED_PARAMS",
    "ensemble_measure",
    "embed_hypercube",
    "estimate_overlap",
    "hypercube_scale",
    "max_ball_radius",
    "min_eigenvalues",
    "permute_qubits",
    "pure_state",
    "random_mixed",
    "singlet_projector",
    "tensor",
}


def test_every_exported_name_resolves_once():
    assert len(qhsd.__all__) == len(set(qhsd.__all__))
    assert [name for name in qhsd.__all__ if not hasattr(qhsd, name)] == []


@pytest.mark.parametrize("module", [qhsd, states, encoding, interferometry], ids=lambda m: m.__name__)
def test_removed_names_are_not_defined(module):
    assert sorted(REMOVED & set(vars(module))) == []
