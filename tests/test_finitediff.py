import numpy as np
import pytest

from dynamokit.finitediff import derivative_uniform, second_derivative_uniform


@pytest.mark.parametrize("derivative,samples,message", [
    (derivative_uniform, [1.0, 2.0], "need at least 3 samples"),
    (second_derivative_uniform, [1.0, 2.0, 3.0], "need at least 4 samples"),
], ids=["first", "second"])
def test_rejects_too_few_samples(derivative, samples, message):
    with pytest.raises(ValueError, match=message):
        derivative(np.array(samples), 0.1)

