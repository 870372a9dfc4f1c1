#include "textflag.h"

// func gemmStrip16(dst, a *float32, sa int, b *float32, ldb, k int) (nan bool)
//
// X0-X3 hold dst[0:16] for the whole p loop. Each step broadcasts
// a[p·sa] and adds its products with b[p·ldb:][0:16]; MULPS rounds each
// product before ADDPS adds it, so nothing is fused. At the end CMPPS
// $3 (unordered) marks NaN lanes and MOVMSKPS collects them into nan.
TEXT ·gemmStrip16(SB), NOSPLIT, $0-49
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ sa+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R9
	MOVQ k+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ CX, CX
	JLE   done

loop:
	MOVSS  (SI), X4
	SHUFPS $0, X4, X4
	MOVUPS (DX), X5
	MOVUPS 16(DX), X6
	MOVUPS 32(DX), X7
	MOVUPS 48(DX), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   R8, SI
	ADDQ   R9, DX
	DECQ   CX
	JNZ    loop

done:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	CMPPS  X0, X0, $3
	CMPPS  X1, X1, $3
	CMPPS  X2, X2, $3
	CMPPS  X3, X3, $3
	ORPS   X1, X0
	ORPS   X3, X2
	ORPS   X2, X0
	MOVMSKPS X0, AX
	TESTL  AX, AX
	SETNE  nan+48(FP)
	RET
