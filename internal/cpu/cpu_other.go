//go:build !amd64 || purego

package cpu

func probe() Level { return Scalar }
