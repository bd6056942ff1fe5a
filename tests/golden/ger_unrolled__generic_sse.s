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
	movddup	(%r9), %xmm4	# scal = Vdup ptr_X0[0]
	mov	%rbp, %rdi
	lea	(%rdi,%rax,8), %rdi
	mov	%rbx, %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	256(%rdi)
	# --- mvUnrolledCOMP ---
	movupd	(%rsi), %xmm8	# Vld ptr_Y0[0..1]
	movapd	%xmm8, %xmm12	# B += A*scal
	mulpd	%xmm4, %xmm12
	movupd	(%rdi), %xmm0	# Vld ptr_A0[0..1]
	addpd	%xmm12, %xmm0
	movupd	%xmm0, (%rdi)	# Vst ptr_A0[0..1]
	movupd	16(%rsi), %xmm9	# Vld ptr_Y0[2..3]
	movapd	%xmm9, %xmm13	# B += A*scal
	mulpd	%xmm4, %xmm13
	movupd	16(%rdi), %xmm1	# Vld ptr_A0[2..3]
	addpd	%xmm13, %xmm1
	movupd	%xmm1, 16(%rdi)	# Vst ptr_A0[2..3]
	movupd	32(%rsi), %xmm10	# Vld ptr_Y0[4..5]
	movapd	%xmm10, %xmm14	# B += A*scal
	mulpd	%xmm4, %xmm14
	movupd	32(%rdi), %xmm2	# Vld ptr_A0[4..5]
	addpd	%xmm14, %xmm2
	movupd	%xmm2, 32(%rdi)	# Vst ptr_A0[4..5]
	movupd	48(%rsi), %xmm11	# Vld ptr_Y0[6..7]
	movapd	%xmm11, %xmm15	# B += A*scal
	mulpd	%xmm4, %xmm15
	movupd	48(%rdi), %xmm3	# Vld ptr_A0[6..7]
	addpd	%xmm15, %xmm3
	movupd	%xmm3, 48(%rdi)	# Vst ptr_A0[6..7]
	add	$64, %rdi	# ptr_A0 += 8
	add	$64, %rsi	# ptr_Y0 += 8
	add	$8, %rdx
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
	pop	%r12
	ret
	.size golden_ger_u, .-golden_ger_u
