"""emorec: from-scratch speech emotion recognition.

MFCC front end (radix-2 FFT, mel filterbank, DCT-II), kernel SVM with an
SMO-style dual solver, a small CNN engine with RMSProp, an evaluation
harness, and a streaming real-time inference mode.
"""

from .audio_io import AudioClip, decode_wav, encode_wav, synth_chirp, synth_tone
from .dataset import (EmotionLabel, SampleRecord, parse_ravdess_filename,
                      parse_tess_filename, stratified_split, validate_manifest)
from .dsp import (MfccMatrix, dct2, fft, ifft, inverse_mel_scale,
                  mel_filterbank, mel_scale, mfcc, stft)
from .features import (FeatureWindow, PipelineConfig, augment_invert,
                       augment_reverse, extract_clip, extract_window, flatten,
                       normalize_loudness, pad_to_length, truncate_to_length)
from .metrics import (confusion_matrix, metrics_report, precision_recall_f1,
                      top_k_accuracy)
from .nn import (CnnModel, TrainConfig, build_emotion_cnn, cross_entropy_loss,
                 gradient_check, rmsprop_step, softmax)
from .streaming import StreamConfig, StreamingClassifier, stream_infer
from .svm import (KernelSpec, SvmModel, kernel_eval, predict, resolve_gamma,
                  train_binary, train_multiclass)
from .sweep import evaluate_model, run_svm_sweep

__version__ = "0.1.0"
