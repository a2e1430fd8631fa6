// Package fft implements the radix-2 Cooley–Tukey fast Fourier transform
// for complex128 signals, plus the real-input helpers the SPOD module
// needs. The standard library has no FFT, and the spectral variants of the
// decompositions in this repository (SPOD / spectral EOF, which the paper's
// §2 presents as the frequency-domain siblings of the POD it computes)
// operate on Fourier coefficients of windowed snapshot blocks.
//
// Lengths must be powers of two; Hann windowing and the one-sided
// frequency axis helper cover the Welch-style blocking SPOD performs.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-order discrete Fourier transform of x:
//
//	X[k] = Σ_j x[j]·exp(−2πi·jk/n)
//
// The input is not modified. It panics unless len(x) is a power of two.
func FFT(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	transform(out, false)
	return out
}

// IFFT computes the inverse DFT with the 1/n normalization, so
// IFFT(FFT(x)) == x up to roundoff.
func IFFT(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	transform(out, true)
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] /= n
	}
	return out
}

// transform runs the iterative radix-2 Cooley–Tukey algorithm in place.
func transform(x []complex128, inverse bool) {
	n := len(x)
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wl
			}
		}
	}
}

// HannWindow returns the length-n Hann window w[j] = 0.5·(1 − cos(2πj/n)),
// the standard choice for Welch-method blocking.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	for j := range w {
		w[j] = 0.5 * (1 - math.Cos(2*math.Pi*float64(j)/float64(n)))
	}
	return w
}

// Frequencies returns the one-sided frequency axis for an n-point
// transform at sample interval dt: n/2+1 values from 0 to the Nyquist
// frequency 1/(2·dt).
func Frequencies(n int, dt float64) []float64 {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	if dt <= 0 {
		panic(fmt.Sprintf("fft: sample interval %g <= 0", dt))
	}
	out := make([]float64, n/2+1)
	for k := range out {
		out[k] = float64(k) / (float64(n) * dt)
	}
	return out
}
