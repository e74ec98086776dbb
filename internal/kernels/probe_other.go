//go:build !amd64 && !arm64

package kernels

// Architectures without a SIMD backend run the scalar reference everywhere.

func probeBest() Backend { return Scalar }

func backendSupported(b Backend) bool { return b == Scalar }

func backendTable(b Backend) table { return scalarTable }
