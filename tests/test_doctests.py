import doctest

import pytest

import revstack.patterns
import revstack.perms
import revstack.polynomials
import revstack.roots
import revstack.trees
import revstack.zigzag


@pytest.mark.parametrize(
    "module",
    [
        revstack.perms,
        revstack.patterns,
        revstack.zigzag,
        revstack.polynomials,
        revstack.roots,
        revstack.trees,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
