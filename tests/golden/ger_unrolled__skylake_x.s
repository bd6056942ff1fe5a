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
	vbroadcastsd	(%r9), %zmm4	# scal = Vdup ptr_X0[0]
	mov	%rbp, %rdi
	lea	(%rdi,%rax,8), %rdi
	mov	%rbx, %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	1024(%rdi)
	# --- mvUnrolledCOMP ---
	vmovupd	(%rsi), %zmm8	# Vld ptr_Y0[0..7]
	vmovupd	(%rdi), %zmm0	# Vld ptr_A0[0..7]
	vfmadd231pd	%zmm8, %zmm4, %zmm0	# B += A*scal
	vmovupd	%zmm0, (%rdi)	# Vst ptr_A0[0..7]
	vmovupd	64(%rsi), %zmm9	# Vld ptr_Y0[8..15]
	vmovupd	64(%rdi), %zmm1	# Vld ptr_A0[8..15]
	vfmadd231pd	%zmm9, %zmm4, %zmm1	# B += A*scal
	vmovupd	%zmm1, 64(%rdi)	# Vst ptr_A0[8..15]
	vmovupd	128(%rsi), %zmm10	# Vld ptr_Y0[16..23]
	vmovupd	128(%rdi), %zmm2	# Vld ptr_A0[16..23]
	vfmadd231pd	%zmm10, %zmm4, %zmm2	# B += A*scal
	vmovupd	%zmm2, 128(%rdi)	# Vst ptr_A0[16..23]
	vmovupd	192(%rsi), %zmm11	# Vld ptr_Y0[24..31]
	vmovupd	192(%rdi), %zmm3	# Vld ptr_A0[24..31]
	vfmadd231pd	%zmm11, %zmm4, %zmm3	# B += A*scal
	vmovupd	%zmm3, 192(%rdi)	# Vst ptr_A0[24..31]
	add	$256, %rdi	# ptr_A0 += 32
	add	$256, %rsi	# ptr_Y0 += 32
	add	$32, %rdx
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
