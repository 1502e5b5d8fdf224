"""The loss and the gradient of one model from one pass, as the tests'
reference: no run calls it."""


def loss_grad(objective, params, X, y):
    """``(objective.loss(params, X, y), objective.grad(params, X, y))``, bit
    for bit, checked, from one binding of ``objective.evaluator``. The
    gradient is the caller's: nothing else holds that binding."""
    return objective.evaluator(X, y)(objective._check(params, X))
