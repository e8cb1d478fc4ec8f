"""Synthetic computer-vision substrate: imperfect detection and tracking.

The paper's implementation uses Faster-RCNN (Detectron2) for object detection
and DeepSORT / SORT for tracking.  Neither pixels nor GPUs are available in
this reproduction, so the substrate instead degrades the simulator's perfect
ground truth the way a real detector would (missed detections, localisation
noise, spurious detections) and re-links the degraded detections with a
greedy IoU tracker exposing the same hyperparameters the paper tunes
(Appendix A).
"""
