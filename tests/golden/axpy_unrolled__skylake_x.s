	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_axpy_u
	.type golden_axpy_u, @function
	.p2align 4
golden_axpy_u:
	sub	$80, %rsp
	mov	%rdi, (%rsp)	# arg N
	vmovsd	%xmm0, 8(%rsp)	# arg alpha
	mov	%rsi, 16(%rsp)	# arg X
	mov	%rdx, 24(%rsp)	# arg Y
	mov	16(%rsp), %r8	# home X
	mov	24(%rsp), %r9	# home Y
	mov	(%rsp), %rcx	# home N
	mov	%r9, %rdi
	mov	%r8, %rsi
	mov	$0, %rdx
	jmp	.LBL0
.LBL1:
	# --- mvUnrolledCOMP ---
	vbroadcastsd	8(%rsp), %zmm10	# broadcast param alpha
	vmovupd	(%rsi), %zmm0	# Vld ptr_X0[0..7]
	vmovupd	(%rdi), %zmm5	# Vld ptr_Y0[0..7]
	vfmadd231pd	%zmm0, %zmm10, %zmm5	# B += A*alpha
	vmovupd	%zmm5, (%rdi)	# Vst ptr_Y0[0..7]
	add	$64, %rdi	# ptr_Y0 += 8
	add	$64, %rsi	# ptr_X0 += 8
	add	$8, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	vzeroupper
	add	$80, %rsp
	ret
	.size golden_axpy_u, .-golden_axpy_u
