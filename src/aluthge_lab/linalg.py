from .limits import PSD_TOL
