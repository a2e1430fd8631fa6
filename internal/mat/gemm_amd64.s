//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX2FMA() bool
//
// CPUID leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28);
// XGETBV(0): XMM|YMM state enabled by the OS (bits 1-2);
// CPUID leaf 7 EBX: AVX2 (bit 5).
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  notsupported
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  notsupported
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX
	JZ   notsupported
	MOVB $1, ret+0(FP)
	RET

notsupported:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX512F() bool
//
// CPUID leaf 1 ECX: OSXSAVE (bit 27);
// XGETBV(0): XMM|YMM (bits 1-2) plus opmask|ZMM_Hi256|Hi16_ZMM (bits 5-7)
// state enabled by the OS (mask 0xe6);
// CPUID leaf 7 EBX: AVX512F (bit 16).
TEXT ·hasAVX512F(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<27), CX
	JZ    no512
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	JNE   no512
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $(1<<16), BX
	JZ    no512
	MOVB  $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// func microFMA8x4(kc int, ap, bp, dst *float64)
//
// One 8×4 micro-tile of the blocked GEMM: ap holds an 8-row packed A strip
// (8 doubles per k-step), bp a 4-column packed B strip (4 doubles per
// k-step). The 8×4 C tile lives in Y0–Y7 (row i in Y_i); every k-step is
// one B-vector load plus eight broadcast-FMAs. The finished tile is stored
// row-major to dst (8 rows × 4 doubles = 32 doubles).
TEXT ·microFMA8x4(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ dst+24(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (DI), Y8              // b[0:4] for this k-step

	VBROADCASTSD 0(SI), Y9
	VBROADCASTSD 8(SI), Y10
	VFMADD231PD  Y8, Y9, Y0
	VFMADD231PD  Y8, Y10, Y1
	VBROADCASTSD 16(SI), Y11
	VBROADCASTSD 24(SI), Y12
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y8, Y12, Y3
	VBROADCASTSD 32(SI), Y9
	VBROADCASTSD 40(SI), Y10
	VFMADD231PD  Y8, Y9, Y4
	VFMADD231PD  Y8, Y10, Y5
	VBROADCASTSD 48(SI), Y11
	VBROADCASTSD 56(SI), Y12
	VFMADD231PD  Y8, Y11, Y6
	VFMADD231PD  Y8, Y12, Y7

	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func microAVX512F8x8(kc int, ap, bp, dst *float64)
//
// One 8×8 micro-tile: ap holds an 8-row packed A strip (8 doubles per
// k-step), bp an 8-column packed B strip (8 doubles per k-step). The 8×8 C
// tile lives in Z0–Z7 (row i in Z_i); every k-step is one 64-byte B-vector
// load plus eight broadcast-FMAs. Only AVX-512F instructions are used
// (VPXORQ zeroes the accumulators because VXORPD on ZMM would need
// AVX-512DQ), so the CPUID gate above requires the F subset alone. The
// finished tile is stored row-major to dst (8 rows × 8 doubles).
TEXT ·microAVX512F8x8(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ dst+24(FP), DX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	TESTQ CX, CX
	JZ    store512

loop512:
	VMOVUPD (DI), Z8              // b[0:8] for this k-step

	VBROADCASTSD 0(SI), Z9
	VBROADCASTSD 8(SI), Z10
	VFMADD231PD  Z8, Z9, Z0
	VFMADD231PD  Z8, Z10, Z1
	VBROADCASTSD 16(SI), Z11
	VBROADCASTSD 24(SI), Z12
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z8, Z12, Z3
	VBROADCASTSD 32(SI), Z9
	VBROADCASTSD 40(SI), Z10
	VFMADD231PD  Z8, Z9, Z4
	VFMADD231PD  Z8, Z10, Z5
	VBROADCASTSD 48(SI), Z11
	VBROADCASTSD 56(SI), Z12
	VFMADD231PD  Z8, Z11, Z6
	VFMADD231PD  Z8, Z12, Z7

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop512

store512:
	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	VZEROUPPER
	RET

// func dot4AVX512(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)
//
// The dot-block kernel body: s_j = a·b_j over k elements, k a positive
// multiple of 16. Each k-step of 16 loads two 8-wide vectors of a and
// folds eight loads of the b rows into the FMAs; the two accumulators of
// each b row (Z0/Z1 for b0 … Z6/Z7 for b3) keep eight FMA chains in
// flight. The lanes reduce by the fixed tree (acc0+acc1), then halves
// 8→4→2→1, so an element's value never depends on the call it is in.
TEXT ·dot4AVX512(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	SHRQ $4, CX
	XORQ AX, AX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

dot512loop:
	VMOVUPD     (SI)(AX*1), Z16
	VMOVUPD     64(SI)(AX*1), Z17
	VFMADD231PD (R8)(AX*1), Z16, Z0
	VFMADD231PD 64(R8)(AX*1), Z17, Z1
	VFMADD231PD (R9)(AX*1), Z16, Z2
	VFMADD231PD 64(R9)(AX*1), Z17, Z3
	VFMADD231PD (R10)(AX*1), Z16, Z4
	VFMADD231PD 64(R10)(AX*1), Z17, Z5
	VFMADD231PD (R11)(AX*1), Z16, Z6
	VFMADD231PD 64(R11)(AX*1), Z17, Z7
	ADDQ        $128, AX
	DECQ        CX
	JNZ         dot512loop

	VADDPD Z1, Z0, Z0
	VADDPD Z3, Z2, Z2
	VADDPD Z5, Z4, Z4
	VADDPD Z7, Z6, Z6

	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VADDPD        X1, X0, X0
	VPERMILPD     $1, X0, X1
	VADDSD        X1, X0, X0
	MOVSD         X0, s0+48(FP)

	VEXTRACTF64X4 $1, Z2, Y3
	VADDPD        Y3, Y2, Y2
	VEXTRACTF128  $1, Y2, X3
	VADDPD        X3, X2, X2
	VPERMILPD     $1, X2, X3
	VADDSD        X3, X2, X2
	MOVSD         X2, s1+56(FP)

	VEXTRACTF64X4 $1, Z4, Y5
	VADDPD        Y5, Y4, Y4
	VEXTRACTF128  $1, Y4, X5
	VADDPD        X5, X4, X4
	VPERMILPD     $1, X4, X5
	VADDSD        X5, X4, X4
	MOVSD         X4, s2+64(FP)

	VEXTRACTF64X4 $1, Z6, Y7
	VADDPD        Y7, Y6, Y6
	VEXTRACTF128  $1, Y6, X7
	VADDPD        X7, X6, X6
	VPERMILPD     $1, X6, X7
	VADDSD        X7, X6, X6
	MOVSD         X6, s3+72(FP)
	VZEROUPPER
	RET

// func dot4FMA(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)
//
// The AVX2/FMA dot-block kernel body: as dot4AVX512 with 4-wide vectors,
// k a positive multiple of 8 (Y0/Y1 for b0 … Y6/Y7 for b3), lanes reduced
// (acc0+acc1), then halves 4→2→1.
TEXT ·dot4FMA(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	SHRQ $3, CX
	XORQ AX, AX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

dot256loop:
	VMOVUPD     (SI)(AX*1), Y8
	VMOVUPD     32(SI)(AX*1), Y9
	VFMADD231PD (R8)(AX*1), Y8, Y0
	VFMADD231PD 32(R8)(AX*1), Y9, Y1
	VFMADD231PD (R9)(AX*1), Y8, Y2
	VFMADD231PD 32(R9)(AX*1), Y9, Y3
	VFMADD231PD (R10)(AX*1), Y8, Y4
	VFMADD231PD 32(R10)(AX*1), Y9, Y5
	VFMADD231PD (R11)(AX*1), Y8, Y6
	VFMADD231PD 32(R11)(AX*1), Y9, Y7
	ADDQ        $64, AX
	DECQ        CX
	JNZ         dot256loop

	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6

	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	MOVSD        X0, s0+48(FP)

	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X2, X2
	MOVSD        X2, s1+56(FP)

	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VPERMILPD    $1, X4, X5
	VADDSD       X5, X4, X4
	MOVSD        X4, s2+64(FP)

	VEXTRACTF128 $1, Y6, X7
	VADDPD       X7, X6, X6
	VPERMILPD    $1, X6, X7
	VADDSD       X7, X6, X6
	MOVSD        X6, s3+72(FP)
	VZEROUPPER
	RET

// func axpy16AVX512(rows, n, k int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, acc bool)
//
// The broadcast-axpy kernel body: C[i, 0:n] (+)= Σ_kk A[i, kk]·B[kk, 0:n],
// rows, n and k positive, strides in elements; acc false starts every
// element from +0 instead of loading C. Rows go four at a time, then one
// at a time, each group sweeping its rows left to right in 16-column
// strips: C rows in Z0–Z7, two B vectors and four broadcast A scalars per
// k-step, eight FMAs. Sweeping a group's rows before moving down keeps a
// strip's loads clear of the previous group's stores, which sit a
// multiple of 4 KiB away when C's rows are (the QR's trailing update) and
// would otherwise alias them. The last strip's columns past n are masked
// off in K1 (columns 0–7) and K2 (8–15); masked loads never touch them.
// Every element is the chain c ← fma(a_kk, b_kk, c) in k order whichever
// group it is in.
TEXT ·axpy16AVX512(SB), NOSPLIT, $0-81
	MOVQ rows+0(FP), DI
	MOVQ a+24(FP), SI
	MOVQ c+64(FP), BX
	MOVQ rsA+32(FP), R8
	MOVQ csA+40(FP), R9
	MOVQ ldb+56(FP), R10
	MOVQ ldc+72(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12          // 3 A rows

axpy512rows4:
	CMPQ DI, $4
	JLT  axpy512rows1
	MOVQ b+48(FP), DX             // B strip
	MOVQ BX, R14                  // C strip of the group's first row
	MOVQ n+8(FP), R15             // columns left

axpy512strip4:
	MOVL  $0xffff, AX
	CMPQ  R15, $16
	JGE   axpy512mask4
	MOVQ  R15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX                      // (1<<left)−1 for the last, partial strip

axpy512mask4:
	KMOVW AX, K1
	SHRL  $8, AX
	KMOVW AX, K2
	LEAQ  (R14)(R11*2), AX
	CMPB  acc+80(FP), $0
	JEQ   axpy512zero4
	VMOVUPD.Z (R14), K1, Z0
	VMOVUPD.Z 64(R14), K2, Z1
	VMOVUPD.Z (R14)(R11*1), K1, Z2
	VMOVUPD.Z 64(R14)(R11*1), K2, Z3
	VMOVUPD.Z (AX), K1, Z4
	VMOVUPD.Z 64(AX), K2, Z5
	VMOVUPD.Z (AX)(R11*1), K1, Z6
	VMOVUPD.Z 64(AX)(R11*1), K2, Z7
	JMP   axpy512run4

axpy512zero4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

axpy512run4:
	MOVQ SI, AX
	MOVQ DX, R13
	MOVQ k+16(FP), CX

axpy512k4:
	VMOVUPD.Z    (R13), K1, Z8
	VMOVUPD.Z    64(R13), K2, Z9
	VBROADCASTSD (AX), Z10
	VBROADCASTSD (AX)(R8*1), Z11
	VBROADCASTSD (AX)(R8*2), Z12
	VBROADCASTSD (AX)(R12*1), Z13
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VFMADD231PD  Z8, Z12, Z4
	VFMADD231PD  Z9, Z12, Z5
	VFMADD231PD  Z8, Z13, Z6
	VFMADD231PD  Z9, Z13, Z7
	ADDQ         R9, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          axpy512k4

	LEAQ (R14)(R11*2), AX
	VMOVUPD Z0, K1, (R14)
	VMOVUPD Z1, K2, 64(R14)
	VMOVUPD Z2, K1, (R14)(R11*1)
	VMOVUPD Z3, K2, 64(R14)(R11*1)
	VMOVUPD Z4, K1, (AX)
	VMOVUPD Z5, K2, 64(AX)
	VMOVUPD Z6, K1, (AX)(R11*1)
	VMOVUPD Z7, K2, 64(AX)(R11*1)
	ADDQ $128, DX
	ADDQ $128, R14
	SUBQ $16, R15
	JG   axpy512strip4

	LEAQ (SI)(R8*4), SI
	LEAQ (BX)(R11*4), BX
	SUBQ $4, DI
	JMP  axpy512rows4

axpy512rows1:
	TESTQ DI, DI
	JZ    axpy512done
	MOVQ  b+48(FP), DX
	MOVQ  BX, R14
	MOVQ  n+8(FP), R15

axpy512strip1:
	MOVL  $0xffff, AX
	CMPQ  R15, $16
	JGE   axpy512mask1
	MOVQ  R15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

axpy512mask1:
	KMOVW AX, K1
	SHRL  $8, AX
	KMOVW AX, K2
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	CMPB  acc+80(FP), $0
	JEQ   axpy512run1
	VMOVUPD.Z (R14), K1, Z0
	VMOVUPD.Z 64(R14), K2, Z1

axpy512run1:
	MOVQ SI, AX
	MOVQ DX, R13
	MOVQ k+16(FP), CX

axpy512k1:
	VMOVUPD.Z    (R13), K1, Z8
	VMOVUPD.Z    64(R13), K2, Z9
	VBROADCASTSD (AX), Z10
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	ADDQ         R9, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          axpy512k1

	VMOVUPD Z0, K1, (R14)
	VMOVUPD Z1, K2, 64(R14)
	ADDQ $128, DX
	ADDQ $128, R14
	SUBQ $16, R15
	JG   axpy512strip1

	ADDQ R8, SI
	ADDQ R11, BX
	DECQ DI
	JMP  axpy512rows1

axpy512done:
	VZEROUPPER
	RET

// func axpy8FMA(rows, n, k int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, acc bool)
//
// The AVX2/FMA broadcast-axpy kernel body: as axpy16AVX512 on 8-column
// strips (two 4-wide vectors per row), n a positive multiple of 8.
TEXT ·axpy8FMA(SB), NOSPLIT, $0-81
	MOVQ rows+0(FP), DI
	MOVQ a+24(FP), SI
	MOVQ c+64(FP), BX
	MOVQ rsA+32(FP), R8
	MOVQ csA+40(FP), R9
	MOVQ ldb+56(FP), R10
	MOVQ ldc+72(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12

axpy256rows4:
	CMPQ DI, $4
	JLT  axpy256rows1
	MOVQ b+48(FP), DX
	MOVQ BX, R14
	MOVQ n+8(FP), R15

axpy256strip4:
	LEAQ (R14)(R11*2), AX
	CMPB acc+80(FP), $0
	JEQ  axpy256zero4
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD (R14)(R11*1), Y2
	VMOVUPD 32(R14)(R11*1), Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(R11*1), Y6
	VMOVUPD 32(AX)(R11*1), Y7
	JMP  axpy256run4

axpy256zero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

axpy256run4:
	MOVQ SI, AX
	MOVQ DX, R13
	MOVQ k+16(FP), CX

axpy256k4:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R8*1), Y11
	VBROADCASTSD (AX)(R8*2), Y12
	VBROADCASTSD (AX)(R12*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R9, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          axpy256k4

	LEAQ (R14)(R11*2), AX
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, (R14)(R11*1)
	VMOVUPD Y3, 32(R14)(R11*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R11*1)
	VMOVUPD Y7, 32(AX)(R11*1)
	ADDQ $64, DX
	ADDQ $64, R14
	SUBQ $8, R15
	JNZ  axpy256strip4

	LEAQ (SI)(R8*4), SI
	LEAQ (BX)(R11*4), BX
	SUBQ $4, DI
	JMP  axpy256rows4

axpy256rows1:
	TESTQ DI, DI
	JZ    axpy256done
	MOVQ  b+48(FP), DX
	MOVQ  BX, R14
	MOVQ  n+8(FP), R15

axpy256strip1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPB acc+80(FP), $0
	JEQ  axpy256run1
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1

axpy256run1:
	MOVQ SI, AX
	MOVQ DX, R13
	MOVQ k+16(FP), CX

axpy256k1:
	VBROADCASTSD (AX), Y10
	VFMADD231PD  (R13), Y10, Y0
	VFMADD231PD  32(R13), Y10, Y1
	ADDQ         R9, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          axpy256k1

	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	ADDQ $64, DX
	ADDQ $64, R14
	SUBQ $8, R15
	JNZ  axpy256strip1

	ADDQ R8, SI
	ADDQ R11, BX
	DECQ DI
	JMP  axpy256rows1

axpy256done:
	VZEROUPPER
	RET
