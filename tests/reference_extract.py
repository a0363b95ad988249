"""The avoid-set collection that linear extraction in ``dnsk.extract``
replaced: it recomputed the free variables of every goal and of every
subject at each derivation node.  Kept verbatim as the oracle of
``test_nbe.py``.  It feeds the current extractor, with a free-variable memo
of its own, and ``test_nbe.py`` compares the substitutions with the old
ones on their own."""

from __future__ import annotations

from dnsk.extract import ExtractionEnv, _Extractor
from dnsk.syntax import Term, fv_formula, fv_proof_termvars
from dnsk.typecheck import Derivation


def _names_in(d: Derivation, out: set) -> None:
    out |= fv_formula(d.goal)
    out |= fv_proof_termvars(d.subject)
    node = d.subject
    for attr in ("var",):
        if hasattr(node, attr):
            out.add(getattr(node, attr))
    for child in d.children:
        _names_in(child, out)


def extract_mr(derivation: Derivation, env: ExtractionEnv) -> Term:
    """Compile a control-free derivation into a realizer of its goal's sort."""
    avoid = set(env.hyp_realizers.values())
    _names_in(derivation, avoid)
    ex = _Extractor(env, avoid, {})
    return ex.extract(derivation, {})
