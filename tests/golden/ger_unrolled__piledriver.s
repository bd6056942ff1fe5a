	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_ger_u
	.type golden_ger_u, @function
	.p2align 4
golden_ger_u:
	push	%r12
	push	%r13
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg M
	mov	%rsi, 8(%rsp)	# arg N
	mov	%rdx, 16(%rsp)	# arg X
	mov	%rcx, 24(%rsp)	# arg Y
	mov	%r8, 32(%rsp)	# arg A
	mov	%r9, 40(%rsp)	# arg LDA
	mov	16(%rsp), %r13	# home X
	mov	(%rsp), %r10	# home M
	mov	8(%rsp), %rcx	# home N
	mov	24(%rsp), %rbx	# home Y
	mov	32(%rsp), %rbp	# home A
	mov	40(%rsp), %r12	# home LDA
	mov	%r13, %r9
	mov	$0, %r8
	jmp	.LBL0
.LBL1:
	mov	%r8, %rax
	imul	%r12, %rax
	vbroadcastsd	(%r9), %ymm4	# scal = Vdup ptr_X0[0]
	mov	%rbp, %rdi
	lea	(%rdi,%rax,8), %rdi
	mov	%rbx, %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	512(%rdi)
	# --- mvUnrolledCOMP ---
	vmovupd	(%rsi), %ymm8	# Vld ptr_Y0[0..3]
	vmovupd	(%rdi), %ymm0	# Vld ptr_A0[0..3]
	vfmaddpd	%ymm0, %ymm4, %ymm8, %ymm0	# B += A*scal
	vmovupd	%ymm0, (%rdi)	# Vst ptr_A0[0..3]
	vmovupd	32(%rsi), %ymm9	# Vld ptr_Y0[4..7]
	vmovupd	32(%rdi), %ymm1	# Vld ptr_A0[4..7]
	vfmaddpd	%ymm1, %ymm4, %ymm9, %ymm1	# B += A*scal
	vmovupd	%ymm1, 32(%rdi)	# Vst ptr_A0[4..7]
	vmovupd	64(%rsi), %ymm10	# Vld ptr_Y0[8..11]
	vmovupd	64(%rdi), %ymm2	# Vld ptr_A0[8..11]
	vfmaddpd	%ymm2, %ymm4, %ymm10, %ymm2	# B += A*scal
	vmovupd	%ymm2, 64(%rdi)	# Vst ptr_A0[8..11]
	vmovupd	96(%rsi), %ymm11	# Vld ptr_Y0[12..15]
	vmovupd	96(%rdi), %ymm3	# Vld ptr_A0[12..15]
	vfmaddpd	%ymm3, %ymm4, %ymm11, %ymm3	# B += A*scal
	vmovupd	%ymm3, 96(%rdi)	# Vst ptr_A0[12..15]
	add	$128, %rdi	# ptr_A0 += 16
	add	$128, %rsi	# ptr_Y0 += 16
	add	$16, %rdx
.LBL2:
	cmp	%rcx, %rdx
	jl	.LBL3
	add	$8, %r9	# ptr_X0 += 1
	add	$1, %r8
.LBL0:
	cmp	%r10, %r8
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size golden_ger_u, .-golden_ger_u
