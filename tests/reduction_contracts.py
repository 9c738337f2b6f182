"""The contracts of a row or column reduction, checked outside the lift.

``lifting`` no longer asserts these inside each reduction; the certificate
verifier replays them from every certificate, and the tests check them on
every reduction a lift makes (``reduction_contract_failures``, with a spy on
``lifting._reduce_row``).

A column reduction over R is the row reduction of alpha^T over R^op, so its
contracts are the row contracts there.  For a row reduction of alpha with
last row (c, d) to (c', d'): the word lies in E_2(I) and replays,
h is an idempotent with 1-h in I, c' in Rc, c'R = (1-h)R, d'R = hR and
RhR = R (read off R on a stage ring M_k(R), whose ideals are M_k(J)).
"""

from exlift.matrices import apply_elem_word, word_in_ideal
from exlift.rings import entry_ideal, same_right_ideal, solve_right


def reduction_contract_failures(res) -> list:
    """The names of the contracts the ReductionResult res breaks."""
    ring, alpha, word, result = res.ring, res.alpha, res.word, res.result
    if res.side == "col":
        ring, alpha, word, result = (ring.op(), alpha.op(), word.op(),
                                     result.op())
    ideal, h, one = res.ideal, res.h, ring.one
    cP, dP = result[1, 0], result[1, 1]
    checks = {
        "word in E_2(I)": word_in_ideal(word, ideal),
        "word replays": apply_elem_word(alpha, word) == result,
        "h idempotent": ring.mul(h, h) == h,
        "1-h in ideal": ideal.contains(ring.sub(one, h)),
        "c' in Rc": solve_right(ring.op(), alpha[1, 0], cP) is not None,
        "c'R = (1-h)R": same_right_ideal(ring, cP, ring.sub(one, h)),
        "d'R = hR": same_right_ideal(ring, dP, h),
        "RhR = R": entry_ideal(ring, [h]).is_full(),
    }
    return [name for name, ok in checks.items() if not ok]
