"""Closed forms: the saturation rate calibration starts from, and one
birth–death chain per server whose fixed point gives the mean response
time of RR and of every SRc as the fleet grows (the simulator's oracle).
"""
