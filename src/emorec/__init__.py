"""emorec: from-scratch speech emotion recognition.

MFCC front end (power-of-two FFT, mel filterbank, DCT-II) behind one
extraction path, ``features.extract_clip``; kernel SVM with an SMO-style dual
solver, a small CNN engine with RMSProp, an evaluation harness, and a
streaming real-time inference mode.  Test-only oracles live in the tests,
except ``dsp.stft``, ``dsp.mfcc`` and ``features.normalize_loudness``, which
the benchmark's tracer wraps.
"""

from .audio_io import AudioClip, decode_wav, encode_wav, synth_chirp, synth_tone
from .dataset import (EmotionLabel, SampleRecord, parse_ravdess_filename,
                      parse_tess_filename, stratified_split, validate_manifest)
from .dsp import (MfccMatrix, dct2, fft, inverse_mel_scale, mel_filterbank,
                  mel_scale, mfcc, stft)
from .features import (FeatureWindow, PipelineConfig, augment_reverse,
                       extract_clip, extract_window, flatten)
from .metrics import (confusion_matrix, metrics_report, precision_recall_f1,
                      top_k_accuracy)
from .nn import (CnnModel, TrainConfig, build_emotion_cnn, cross_entropy_loss,
                 gradient_check, rmsprop_step, softmax)
from .streaming import StreamConfig, StreamingClassifier, stream_infer
from .svm import (KernelSpec, SvmModel, predict, resolve_gamma, train_binary,
                  train_multiclass)
from .sweep import evaluate_model, run_svm_sweep

__version__ = "0.1.0"
