"""Golden parity: values recorded before layer and model dispatch moved into
the layer spec and model classes, and before the one-vs-one SVM was deleted.

The determinism tests compare two runs of the same code, so they cannot see
a change of RNG draw order, layer order or float operations.  These pin the
numbers themselves at rtol 1e-9 (not a hash), so a different BLAS kernel
passes while a reordered draw or layer does not.  Each tensor is pinned by
its sum, its sum of squares, and its first and last entries.

The SVM values come from the two-loop SMO solver that preceded the
second-order working-set solver.  Two solvers stopped at tol 1e-3 agree on
the dual optimum, not on the iterate, so the SVM is pinned by its dual
objectives (rtol 1e-6), its decision values (atol 5e-3; a tol 1e-10 solve
moves the recorded values by 2.1e-3) and its predicted class per probe row.
"""

import numpy as np

from emorec import nn, svm
from emorec.svm import KernelSpec
from conftest import overfit_windows

RTOL = 1e-9
ATOL = 1e-12   # sums of near-zero biases

INIT_SUMMARY = [
    [3.545719673793465, 2.1169764034995806,
     0.03893377313360957, 0.07608487425957577],
    [0.0, 0.0, 0.0, 0.0],
    [-3.473056947440308, 32.113920671944086,
     0.014428471494472378, 0.06637742312544226],
    [0.0, 0.0, 0.0, 0.0],
    [6.409348763406478, 41.97885626578799,
     0.005262608816135286, -0.04470772277690517],
    [0.0, 0.0, 0.0, 0.0],
    [-3.7846831319478005, 64.16945680237366,
     0.03186025169766245, -0.014602060826421001],
    [0.0, 0.0, 0.0, 0.0],
    [-21.19217435467788, 393.02779742157014,
     -0.003233521158596389, -0.043532328547545435],
    [0.0, 0.0, 0.0, 0.0],
    [5.6711362732526425, 16.070531961252314,
     0.04552524422511507, -0.04171041859967063],
    [0.0, 0.0, 0.0, 0.0],
]

TRAIN_LOSSES = [
    2.1952297140600754,
    2.1255381939190343,
]

TRAINED_SUMMARY = [
    [-0.6514844803580059, 1.4785447816676047,
     -0.3048841944974474, 0.0934096677267672],
    [0.00021259654857852463, 2.8531350180449947e-05,
     -0.0005861433804885232, -0.001363044377942764],
    [0.17607012224763163, 3.4793188036273266,
     -0.1162383149169983, 0.16208059696833857],
    [-0.012751300246645145, 6.147159799464638e-05,
     0.0005441023205382998, -0.003921274002573951],
    [2.343492686287485, 3.730271376667628,
     0.008864802687402968, 0.07815903046475486],
    [0.010165214639998893, 0.00016818811760895935,
     -0.0057116643303085505, 0.003820480917386594],
    [-3.5912199432215877, 3.924368652599289,
     0.16984439578208346, -0.2756281104911136],
    [-0.014461744172826727, 6.51725090179729e-05,
     -0.004175607969524671, -0.0007008186720096593],
    [-5.5455832583842115, 18.719369752672236,
     -0.18308621274096212, 0.06653716091843266],
    [-0.02076204899101041, 0.00017441005406281096,
     -0.0010301514035113398, -0.004691704170338936],
    [-1.4380177690375435, 10.621745617108163,
     0.15238164744341054, -0.3418086019066727],
    [-4.054849266253973e-05, 6.386624799121563e-06,
     0.00034714026091853343, 0.0013613171204037548],
]

# per-class dual objectives of the one-vs-rest binaries on svm_problem()
OVR_OBJECTIVES = {
    "linear": [132.7133206355517, 26.606549896057466, 44.2191668086825],
    "rbf": [68.28938725061344, 34.07397838971607, 37.69651669423773],
}
OBJECTIVE_RTOL = 1e-6
DECISION_ATOL = 5e-3

OVR_LINEAR = [
    [1.9777411756843826, -0.8590530840790613, -3.640531037284544],
    [-2.107381699909806, 9.450595803149852, -3.496406813275564],
    [2.800444312434961, -17.634493809985155, -0.7988924116502889],
    [-2.1134286962677433, -1.0012380225194777, 0.14477580196023832],
    [-2.2937503615636263, -7.51315282842813, 1.392668399661789],
]

OVR_RBF = [
    [0.04683666565311739, 0.1634057581570053, -1.4414702534954213],
    [-2.848974662701357, 2.225495977830975, -1.0049162717750368],
    [-1.7448513842360638, -0.03651099917163325, 0.23524370461857294],
    [-1.5438007589474783, 0.16512233018887434, 0.05530774837796007],
    [-0.7357773254590576, -1.1979850266683552, 0.5201362773504843],
]

AUDIT_TEXT = (
    'layer           output shape          params\n'
    'conv2d          (13, 26, 32)             320\n'
    'conv2d          (11, 24, 32)            9248\n'
    'max_pooling2d   (5, 12, 32)                0\n'
    'dropout         (5, 12, 32)                0\n'
    'conv2d          (5, 12, 64)            18496\n'
    'conv2d          (3, 10, 64)            36928\n'
    'max_pooling2d   (1, 5, 64)                 0\n'
    'dropout         (1, 5, 64)                 0\n'
    'flatten         (320,)                     0\n'
    'dense           (512,)                164352\n'
    'dropout         (512,)                     0\n'
    'dense           (8,)                    4104\n'
    'Total params: 233448\n'
)


def tensor_summary(params):
    out = []
    for p in params:
        if p is None:
            continue
        for key in ("W", "b"):
            t = p[key]
            out.append([float(t.sum()), float((t * t).sum()),
                        float(t.reshape(-1)[0]), float(t.reshape(-1)[-1])])
    return out


def svm_problem():
    rng = np.random.default_rng(12)
    centers = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
    X = np.concatenate([rng.normal(c, 0.8, size=(12, 3)) for c in centers])
    labels = np.repeat([0, 1, 2], 12)
    probe = rng.normal(size=(5, 3)) * 1.5
    return X, labels, probe


def test_init_params_seed0():
    model = nn.build_emotion_cnn(seed=0)
    np.testing.assert_allclose(tensor_summary(model.params), INIT_SUMMARY,
                               rtol=RTOL, atol=ATOL)


def test_rmsprop_steps_with_dropout():
    model = nn.build_emotion_cnn(conv_filters=(4, 4, 4, 4), dense_units=16,
                                 seed=3)
    x, labels = overfit_windows()
    history = nn.train(model, x, labels,
                       nn.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=7))
    np.testing.assert_allclose([h.train_loss for h in history], TRAIN_LOSSES,
                               rtol=RTOL)
    np.testing.assert_allclose(tensor_summary(model.params), TRAINED_SUMMARY,
                               rtol=RTOL, atol=ATOL)


def test_ovr_decision_values():
    X, labels, probe = svm_problem()
    for kind, expected in (("linear", OVR_LINEAR), ("rbf", OVR_RBF)):
        model = svm.train_multiclass(X, labels, KernelSpec(kind=kind, C=10.0))
        np.testing.assert_allclose([b.objective for b in model.binaries],
                                   OVR_OBJECTIVES[kind], rtol=OBJECTIVE_RTOL)
        values = svm.decision_values(model, probe)
        np.testing.assert_allclose(values, expected, rtol=0, atol=DECISION_ATOL)
        np.testing.assert_array_equal(values.argmax(axis=1),
                                      np.argmax(expected, axis=1))


def test_audit_text():
    assert nn.audit_params(nn.build_emotion_cnn()) == AUDIT_TEXT
