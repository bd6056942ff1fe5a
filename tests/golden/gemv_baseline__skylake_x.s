	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_gemv
	.type golden_gemv, @function
	.p2align 4
golden_gemv:
	push	%r12
	push	%r13
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg M
	mov	%rsi, 8(%rsp)	# arg N
	mov	%rdx, 16(%rsp)	# arg A
	mov	%rcx, 24(%rsp)	# arg LDA
	mov	%r8, 32(%rsp)	# arg X
	mov	%r9, 40(%rsp)	# arg Y
	mov	32(%rsp), %r13	# home X
	mov	(%rsp), %rcx	# home M
	mov	8(%rsp), %r10	# home N
	mov	16(%rsp), %rbx	# home A
	mov	24(%rsp), %rbp	# home LDA
	mov	40(%rsp), %r12	# home Y
	mov	%r13, %r9
	mov	$0, %r8
	jmp	.LBL0
.LBL1:
	mov	%r8, %rax
	imul	%rbp, %rax
	vmovsd	(%r9), %xmm4	# scal = ptr_X0[0]
	mov	%rbx, %rdx
	mov	%r12, %rdi
	lea	(%rdx,%rax,8), %rdx
	mov	$0, %rsi
	jmp	.LBL2
.LBL3:
	# --- mvCOMP ---
	vmovsd	(%rdx), %xmm0	# tmp0 = ptr_A0[0]
	vmovsd	(%rdi), %xmm8	# tmp1 = ptr_Y0[0]
	vfmadd231sd	%xmm0, %xmm4, %xmm8	# tmp1 += tmp0*scal
	vmovsd	%xmm8, (%rdi)	# ptr_Y0[0] = tmp1
	add	$8, %rdi	# ptr_Y0 += 1
	add	$8, %rdx	# ptr_A0 += 1
	add	$1, %rsi
.LBL2:
	cmp	%rcx, %rsi
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
	.size golden_gemv, .-golden_gemv
